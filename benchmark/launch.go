package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
)

// launchRanks is the benchmark's -spawn: it re-executes this binary once
// per rank as -wire=tcp -rank-id=r -rendezvous=addr, passes rank 0's
// output through, waits for every rank and reports the first that
// failed. It is wirecli.Flags.Launch except for where the rendezvous
// address comes from.
//
// Launch reserves its address by binding port 0 and closing the socket,
// which leaves the port free and inside the kernel's ephemeral range:
// each rank's mesh listener, also bound to port 0, can draw the same port
// again (measured: 83 worlds in 300 000). Rank 0 then cannot bind the
// rendezvous address, both ranks wait out the 30 s handshake timeout, and
// the repetition fails without having sent a message — about one timed
// run in 170, one check of the whole benchmark in four. A port outside
// the ephemeral range is never drawn for a port-0 bind or an outgoing
// connection, so the benchmark picks its rendezvous port there.
func launchRanks(f *options, world int) error {
	addr, err := rendezvousAddr()
	if err != nil {
		return fmt.Errorf("benchmark launcher: rendezvous port: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	base := []string{
		"-child", "-workload", f.workload,
		"-seed", fmt.Sprint(f.seed),
		"-result", f.result,
		"-memcap-mb", fmt.Sprint(f.memCapMB),
	}
	if f.quick {
		base = append(base, "-quick")
	}
	if f.traced {
		base = append(base, "-traced")
	}
	if f.fault != "" {
		base = append(base, "-fault", f.fault)
	}
	cmds := make([]*exec.Cmd, world)
	outs := make([]*bytes.Buffer, world)
	for r := 0; r < world; r++ {
		args := append(append([]string{}, base...),
			"-wire=tcp",
			fmt.Sprintf("-ranks=%d", world),
			fmt.Sprintf("-rank-id=%d", r),
			"-rendezvous="+addr,
		)
		cmd := exec.Command(exe, args...)
		if r == 0 {
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		} else {
			outs[r] = &bytes.Buffer{}
			cmd.Stdout, cmd.Stderr = outs[r], outs[r]
		}
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				c.Process.Kill()
				c.Wait()
			}
			return fmt.Errorf("benchmark launcher: starting rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	var firstErr error
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("benchmark launcher: rank %d process: %w", r, err)
			if outs[r] != nil {
				io.Copy(os.Stderr, outs[r])
			}
		}
	}
	return firstErr
}

// rendezvousAddr returns a free loopback address whose port lies outside
// the kernel's ephemeral range. The search starts at an offset derived
// from the process id, so launchers that run at the same time (go test
// runs packages in parallel) start at different ports.
func rendezvousAddr() (string, error) {
	lo, hi := 10000, 32768 // what lies below Linux's default ephemeral range, 32768..60999
	if eLo, eHi, ok := ephemeralRange(); ok {
		if eLo >= lo+1000 {
			hi = eLo
		} else {
			lo, hi = eHi+1, 65536
		}
	}
	if hi-lo < 100 {
		return "", fmt.Errorf("the ephemeral range leaves no ports outside it")
	}
	span := hi - lo
	start := os.Getpid() * 7919 % span
	var lastErr error
	for i := 0; i < span; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", lo+(start+i)%span)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		ln.Close()
		return addr, nil
	}
	return "", fmt.Errorf("no free port in %d..%d: %v", lo, hi-1, lastErr)
}

// ephemeralRange reads the range the kernel draws port-0 binds and
// outgoing connections from.
func ephemeralRange() (lo, hi int, ok bool) {
	data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 0, 0, false
	}
	if n, _ := fmt.Sscan(string(data), &lo, &hi); n != 2 || lo <= 0 || hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}
