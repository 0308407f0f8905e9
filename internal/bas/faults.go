package bas

import (
	"time"

	"mkbas/internal/faultinject"
	"mkbas/internal/machine"
	"mkbas/internal/obs"
	"mkbas/internal/plant"
)

// This file binds the platform-neutral fault-injection campaign layer
// (internal/faultinject) to a deployment: one board type serves every
// platform, its kernel hooks going through the deployment's binding, so one
// fault plan runs unchanged on all of them — the whole point of the chaos
// comparison.

// ArmFaults schedules a deterministic fault-injection plan against this
// board. Call after deploy, before Run; the returned injector reports
// outcomes (MTTR, unrecovered faults) once the run completes.
func (d *Deployment) ArmFaults(plan *faultinject.Plan) (*faultinject.Injector, error) {
	return faultinject.Arm(board{d}, plan)
}

// board is the faultinject.Board of a deployment: the testbed supplies the
// clock, the room, the logs and the network, and the binding crashes
// processes and filters IPC.
type board struct{ d *Deployment }

func (b board) Clock() *machine.Clock  { return b.d.tb.Machine.Clock() }
func (b board) Room() *plant.Room      { return b.d.tb.Room }
func (b board) Events() *obs.EventLog  { return b.d.tb.Machine.Obs().Events() }
func (b board) Metrics() *obs.Registry { return b.d.tb.Machine.Obs().Metrics() }

func (b board) CrashProcess(name string) error { return b.d.kernel.crashProcess(b.d, name) }
func (b board) SetIPCFault(fn func(src, dst string) (bool, time.Duration)) {
	b.d.kernel.setIPCFault(b.d, fn)
}

// Flood opens count host-side connections to the web port and writes a
// request on each without ever reading the response — a connection-exhaustion
// burst against the web interface.
func (b board) Flood(count int) error {
	for i := 0; i < count; i++ {
		conn, err := b.d.tb.Net.Dial(WebPort)
		if err != nil {
			return err
		}
		if err := conn.Write([]byte("GET /status HTTP/1.0\r\n\r\n")); err != nil {
			return err
		}
	}
	return nil
}
