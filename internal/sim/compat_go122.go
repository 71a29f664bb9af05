//go:build !go1.23

package sim

var _ = sim_Proc_needs_Go_1_23_or_later_for_iter_Pull
