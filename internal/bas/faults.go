package bas

import (
	"fmt"
	"strings"
	"time"

	"mkbas/internal/camkes"
	"mkbas/internal/faultinject"
	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/obs"
	"mkbas/internal/plant"
)

// This file binds the platform-neutral fault-injection campaign layer
// (internal/faultinject) to each deployment: every backend exposes the same
// faultinject.Board shape, so one fault plan runs unchanged on all three
// platforms — the whole point of the chaos comparison.

// boardCommon is the testbed-backed half of faultinject.Board, shared by all
// platforms.
type boardCommon struct {
	tb *Testbed
}

func (b boardCommon) Clock() *machine.Clock  { return b.tb.Machine.Clock() }
func (b boardCommon) Room() *plant.Room      { return b.tb.Room }
func (b boardCommon) Events() *obs.EventLog  { return b.tb.Machine.Obs().Events() }
func (b boardCommon) Metrics() *obs.Registry { return b.tb.Machine.Obs().Metrics() }

// Flood opens count host-side connections to the web port and writes a
// request on each without ever reading the response — a connection-exhaustion
// burst against the web interface.
func (b boardCommon) Flood(count int) error {
	for i := 0; i < count; i++ {
		conn, err := b.tb.Net.Dial(WebPort)
		if err != nil {
			return err
		}
		if err := conn.Write([]byte("GET /status HTTP/1.0\r\n\r\n")); err != nil {
			return err
		}
	}
	return nil
}

// minixBoard adapts the MINIX deployment.
type minixBoard struct {
	boardCommon
	k *minix.Kernel
}

func (b minixBoard) CrashProcess(name string) error { return b.k.CrashProcess(name) }
func (b minixBoard) SetIPCFault(fn func(src, dst string) (bool, time.Duration)) {
	b.k.SetIPCFault(fn)
}

// ArmFaults schedules a fault plan against this board.
func (d *MinixDeployment) ArmFaults(plan *faultinject.Plan) (*faultinject.Injector, error) {
	return faultinject.Arm(minixBoard{boardCommon{d.tb}, d.Kernel}, plan)
}

// ControllerRestarts reports the reincarnation server's total restarts.
func (d *MinixDeployment) ControllerRestarts() int {
	return int(d.Kernel.RS().TotalRestarts())
}

// ControllerRecovered reports a controller that died and was reincarnated.
func (d *MinixDeployment) ControllerRecovered() bool {
	return d.ControllerAlive() && d.ControllerRestarts() > 0
}

// sel4Board adapts the seL4/CAmkES deployment.
type sel4Board struct {
	boardCommon
	sys *camkes.System
}

// CrashProcess kills every live thread of the named component: a process
// crash on the component platform takes down the control thread and all
// interface threads together.
func (b sel4Board) CrashProcess(name string) error {
	found := false
	for _, th := range b.sys.ThreadNames() {
		if th != name && !strings.HasPrefix(th, name+".") {
			continue
		}
		if !b.sys.ThreadAlive(th) {
			continue
		}
		if err := b.sys.CrashThread(th); err != nil {
			return err
		}
		found = true
	}
	if !found {
		return fmt.Errorf("bas: no live threads for component %q", name)
	}
	return nil
}

func (b sel4Board) SetIPCFault(fn func(src, dst string) (bool, time.Duration)) {
	b.sys.Kernel().SetIPCFault(fn)
}

// ArmFaults schedules a fault plan against this board.
func (d *Sel4Deployment) ArmFaults(plan *faultinject.Plan) (*faultinject.Injector, error) {
	return faultinject.Arm(sel4Board{boardCommon{d.tb}, d.System}, plan)
}

// ControllerRestarts reports monitor respawns across all threads.
func (d *Sel4Deployment) ControllerRestarts() int { return d.System.TotalRestarts() }

// ControllerRecovered reports a controller that died and was respawned.
func (d *Sel4Deployment) ControllerRecovered() bool {
	return d.ControllerAlive() && d.ControllerRestarts() > 0
}

// linuxBoard adapts the Linux deployment. The kernel's fault filter is keyed
// by queue name, while fault plans target process names, so the adapter
// translates each queue to its consuming process.
type linuxBoard struct {
	boardCommon
	k   *linuxsim.Kernel
	dac *linuxDAC
}

func (b linuxBoard) CrashProcess(name string) error { return b.k.CrashProcess(name) }
func (b linuxBoard) SetIPCFault(fn func(src, dst string) (bool, time.Duration)) {
	if fn == nil {
		b.k.SetIPCFault(nil)
		return
	}
	b.k.SetIPCFault(func(src, queue string) (bool, time.Duration) {
		return fn(src, b.dac.consumerOf(queue))
	})
}

// consumerOf maps a queue to the process that reads it, the process-level
// destination of a message on it, as the board's DAC policy names it. A
// queue without a consumer (the audit log) maps to its own name, which no
// plan targets.
func (b *linuxDAC) consumerOf(queue string) string {
	if consumer := b.consumer[queue]; consumer != "" {
		return consumer
	}
	return queue
}

// ArmFaults schedules a fault plan against this board.
func (d *LinuxDeployment) ArmFaults(plan *faultinject.Plan) (*faultinject.Injector, error) {
	return faultinject.Arm(linuxBoard{boardCommon{d.tb}, d.Kernel, d.dac}, plan)
}

// ControllerRestarts reports respawns (spawns beyond the first) across the
// scenario processes.
func (d *LinuxDeployment) ControllerRestarts() int {
	n := 0
	for _, r := range scenarioRoles {
		if c := d.Kernel.SpawnCount(r.name); c > 1 {
			n += c - 1
		}
	}
	return n
}

// ControllerRecovered reports a controller that died and was respawned.
func (d *LinuxDeployment) ControllerRecovered() bool {
	return d.ControllerAlive() && d.ControllerRestarts() > 0
}
