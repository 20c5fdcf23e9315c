//go:build !ygmcheck

package ygm

import "ygm/internal/transport"

// ygmcheckEnabled reports whether the runtime invariant layer is compiled
// in. This is the default build: all checks compile to no-ops.
const ygmcheckEnabled = false

func checkf(bool, string, ...any) {}

func (c *core) checkCapacityBound() {}

func checkQuiescent(*transport.Proc, int, string) {}

func (td *termDetector) checkVerdictBalanced(bool, [2]uint64) {}
