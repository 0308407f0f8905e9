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
// TrapHandler: the Engine delivers each process trap to the kernel as the
// process's Frame, a trap number with fixed argument registers, and the
// kernel writes its reply into that frame and decides whether the process
// continues, blocks, or dies. A process that blocks waits in its kernel's
// Waits layer, which sleeps, times out and wakes processes the same way
// under every kernel. The sleep, console, device and exit traps are one
// ProcTraps layer too (process side: ProcAPI, DeviceAPI): a kernel gives
// it only its device access check, and every refusal a kernel makes is
// booked through its one Refusals record. Because the Engine is
// single-threaded and scheduling is FIFO within priority, attack
// experiments built on top of it are fully deterministic.
package machine
