package wirecli

import (
	"flag"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"ygm/internal/transport"
)

// parse registers the wire flags on a throwaway FlagSet and parses args,
// the same way every wirecli-using main does.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	f := &Flags{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	return f
}

func TestValidateCombinations(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		world   int
		wantErr string // substring; empty means valid
	}{
		{"default sim", nil, 4, ""},
		{"local", []string{"-wire=local"}, 4, ""},
		{"sim with rank-id", []string{"-rank-id=0"}, 4, "require -wire=tcp"},
		{"sim with rendezvous", []string{"-rendezvous=127.0.0.1:9"}, 4, "require -wire=tcp"},
		{"local with spawn", []string{"-wire=local", "-spawn"}, 4, "require -wire=tcp"},
		{"tcp spawn", []string{"-wire=tcp", "-spawn"}, 4, ""},
		{"tcp explicit rank", []string{"-wire=tcp", "-rank-id=1", "-rendezvous=127.0.0.1:9"}, 4, ""},
		{"tcp missing rank-id", []string{"-wire=tcp", "-rendezvous=127.0.0.1:9"}, 4, "needs -rank-id"},
		{"tcp rank-id out of range", []string{"-wire=tcp", "-rank-id=4", "-rendezvous=127.0.0.1:9"}, 4, "needs -rank-id in 0..3"},
		{"tcp missing rendezvous", []string{"-wire=tcp", "-rank-id=1"}, 4, "needs -rendezvous"},
		{"tcp ranks matches world", []string{"-wire=tcp", "-ranks=4", "-rank-id=0", "-rendezvous=127.0.0.1:9"}, 4, ""},
		{"tcp ranks contradicts world", []string{"-wire=tcp", "-ranks=8", "-rank-id=0", "-rendezvous=127.0.0.1:9"}, 4, "does not match the 4-rank topology"},
		{"unknown wire", []string{"-wire=mpi"}, 4, `unknown -wire "mpi"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parse(t, tc.args...).Validate(tc.world)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("combination accepted; want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewWireSelectsBackend(t *testing.T) {
	newWire := func(args ...string) transport.Wire {
		t.Helper()
		w, err := parse(t, args...).NewWire()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if _, ok := newWire("-wire=sim").(transport.SimWire); !ok {
		t.Fatal("-wire=sim did not produce a SimWire")
	}
	if _, ok := newWire("-wire=local").(transport.LocalWire); !ok {
		t.Fatal("-wire=local did not produce a LocalWire")
	}
	w := newWire("-wire=tcp", "-rank-id=2", "-rendezvous=127.0.0.1:9")
	if _, ok := w.(*transport.TCPWire); !ok {
		t.Fatalf("-wire=tcp produced %T, want *TCPWire", w)
	}
	if _, err := parse(t, "-wire=mpi").NewWire(); err == nil {
		t.Fatal("unknown wire produced a backend instead of an error")
	}
}

func TestIsRoot(t *testing.T) {
	cases := []struct {
		args []string
		want bool
	}{
		{nil, true}, // sim prints
		{[]string{"-wire=local"}, true},
		{[]string{"-wire=tcp", "-spawn"}, true}, // the launcher streams rank 0
		{[]string{"-wire=tcp", "-rank-id=0", "-rendezvous=127.0.0.1:9"}, true},
		{[]string{"-wire=tcp", "-rank-id=3", "-rendezvous=127.0.0.1:9"}, false},
	}
	for _, tc := range cases {
		if got := parse(t, tc.args...).IsRoot(); got != tc.want {
			t.Errorf("IsRoot(%q) = %v, want %v", tc.args, got, tc.want)
		}
	}
}

func TestStripLauncherFlags(t *testing.T) {
	cases := []struct {
		name string
		in   []string
		want []string
	}{
		{"empty", nil, nil},
		{"program flags survive", []string{"-nodes=2", "-cores=2"}, []string{"-nodes=2", "-cores=2"}},
		{"equals forms stripped", []string{"-wire=tcp", "-spawn", "-ranks=4", "-nodes=2"}, []string{"-nodes=2"}},
		{"separate-value forms stripped", []string{"-wire", "tcp", "-ranks", "4", "-keep=1"}, []string{"-keep=1"}},
		{"spawn takes no value", []string{"-spawn", "positional"}, []string{"positional"}},
		{"double dash flags", []string{"--wire=tcp", "--rank-id", "3", "-msgs=10"}, []string{"-msgs=10"}},
		{"rendezvous stripped", []string{"-rendezvous=127.0.0.1:9", "-seed=7"}, []string{"-seed=7"}},
		{"non-flag token matching a name survives", []string{"wire", "-nodes=2"}, []string{"wire", "-nodes=2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := stripLauncherFlags(tc.in)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("stripLauncherFlags(%q) = %q, want %q", tc.in, got, tc.want)
			}
		})
	}
}

func TestLaunchIsNoOpOutsideSpawnMode(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-wire=local"},
		{"-wire=tcp", "-rank-id=0", "-rendezvous=127.0.0.1:9"},
	} {
		done, err := parse(t, args...).Launch(4, args)
		if err != nil {
			t.Fatalf("Launch(%q): %v", args, err)
		}
		if done {
			t.Fatalf("Launch(%q) claimed the run; it must only do so under -wire=tcp -spawn", args)
		}
	}
}

func TestReserveLoopbackAddr(t *testing.T) {
	addr, err := reserveLoopbackAddr()
	if err != nil {
		t.Skip("loopback listening unavailable in this sandbox")
	}
	if !strings.HasPrefix(addr, "127.0.0.1:") || strings.HasSuffix(addr, ":0") {
		t.Fatalf("reserved %q, want a concrete 127.0.0.1 port", addr)
	}
}

// TestReserveLoopbackAddrAvoidsEphemeralRange pins the rendezvous-port
// race fix: the reserved port lies outside the range port-0 binds draw
// from, so the two listeners a rank opens right after the reservation
// (and every other in the world) can never be handed it.
func TestReserveLoopbackAddrAvoidsEphemeralRange(t *testing.T) {
	eLo, eHi, ok := ephemeralPortRange()
	if !ok {
		t.Skip("the kernel's ephemeral port range is not readable here")
	}
	portOf := func(addr string) int {
		t.Helper()
		tcp, err := net.ResolveTCPAddr("tcp", addr)
		if err != nil {
			t.Fatalf("reserved %q: %v", addr, err)
		}
		return tcp.Port
	}
	for i := 0; i < 2000; i++ {
		addr, err := reserveLoopbackAddr()
		if err != nil {
			if i == 0 {
				t.Skip("loopback listening unavailable in this sandbox")
			}
			t.Fatalf("reservation %d: %v", i, err)
		}
		port := portOf(addr)
		if port >= eLo && port <= eHi {
			t.Fatalf("reservation %d: port %d lies inside the ephemeral range %d-%d", i, port, eLo, eHi)
		}
		for j := 0; j < 2; j++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			got := portOf(ln.Addr().String())
			ln.Close()
			if got == port {
				t.Fatalf("reservation %d: a port-0 listener drew the reserved port %d", i, port)
			}
		}
	}
}
