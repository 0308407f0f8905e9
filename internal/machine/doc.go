// Package machine implements a deterministic virtual controller board.
//
// The board stands in for the BeagleBone Black used in the paper's testbed
// (Fig. 4). It provides the execution substrate every simulated operating
// system in this repository runs on:
//
//   - a virtual Clock that only advances under kernel control, so every run
//     is reproducible byte-for-byte;
//   - an Engine that runs simulated processes as coroutines (iter.Pull)
//     under a strictly cooperative, single-core discipline: exactly one
//     process executes at a time, every system call is a scheduling point
//     (a "trap"), and Engine.Run is the one loop that switches between
//     processes, without entering the Go scheduler;
//   - a memory-mapped device Bus connecting drivers to simulated hardware
//     (the thermal plant in internal/plant);
//   - cycle and context-switch accounting, used by the E4 experiments to
//     quantify the paper's microkernel-vs-monolithic IPC overhead remark.
//
// A kernel (internal/minix, internal/sel4, internal/linuxsim) is a
// TrapHandler: the Engine delivers each process trap to the kernel, and the
// kernel decides whether the process continues, blocks, or dies. Because the
// Engine is single-threaded and scheduling is FIFO within priority, attack
// experiments built on top of it are fully deterministic.
package machine
