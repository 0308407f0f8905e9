package core

// This file captures the paper's two concrete policies: the Fig. 3
// three-application example (used verbatim by experiment E2) and the
// temperature-control scenario policy of Fig. 2 / Section IV (experiments E1
// and E3). Keeping them here, next to the mechanism, makes the experiments a
// direct reading of the paper.

// Fig. 3 subjects.
const (
	Fig3App1 ACID = 100
	Fig3App2 ACID = 101
	Fig3App3 ACID = 102
)

// Fig3Matrix reproduces the example matrix of Fig. 3 exactly:
//
//   - App2 may invoke App1's app1_f2() and app1_f3() (types 2, 3) but not
//     app1_f1() (type 1);
//   - App1's app1_f1() may only be invoked by App3;
//   - all acknowledgment messages (type 0) between communicating pairs are
//     allowed;
//   - App3 offers its three functions to App1 (types 1, 2, 3 per the figure's
//     "m_type: 0, 1, 2" / "0, 1" arrows: App1 may call app3_f1() and
//     app3_f2(); App2 may call app3_f1()).
//
// The bitmaps in the figure: row 100→101 is 0001 (ack only), row 101→100 is
// 1101 (ack + f2 + f3), row 102→100 is 0011 (ack + f1), row 100→102 is 0111
// (ack + f1 + f2), row 101→102 is 0011 (ack + f1), row 102→101 is 0001.
func Fig3Matrix() *Matrix {
	m := NewMatrix()
	m.Name(Fig3App1, "App1").Name(Fig3App2, "App2").Name(Fig3App3, "App3")

	// App1 -> App2: acknowledgments only (bitmap 0001 reading type 0 first).
	m.Allow(Fig3App1, Fig3App2, MsgAck)
	// App2 -> App1: ack + app1_f2 + app1_f3 (bitmap 1101).
	m.Allow(Fig3App2, Fig3App1, MsgAck, 2, 3)
	// App3 -> App1: ack + app1_f1 (bitmap 0011).
	m.Allow(Fig3App3, Fig3App1, MsgAck, 1)
	// App1 -> App3: ack + app3_f1 + app3_f2 (bitmap 0111).
	m.Allow(Fig3App1, Fig3App3, MsgAck, 1, 2)
	// App2 -> App3: ack + app3_f1 (bitmap 0011).
	m.Allow(Fig3App2, Fig3App3, MsgAck, 1)
	// App3 -> App2: acknowledgments only.
	m.Allow(Fig3App3, Fig3App2, MsgAck)

	return m.Seal()
}

// Temperature-control scenario subjects (Section IV: "TempSensorProcess.imp
// is 100, and TempControlProcess.imp is 101 etc.").
const (
	ACIDTempSensor   ACID = 100
	ACIDTempControl  ACID = 101
	ACIDHeaterAct    ACID = 102
	ACIDAlarmAct     ACID = 103
	ACIDWebInterface ACID = 104
	// ACIDScenario is the loader process that forks the five application
	// processes and assigns their ac_ids.
	ACIDScenario ACID = 105
)

// Message types used by the scenario processes. These are the "RPC
// selectors" the paper describes: each process publishes which types it
// accepts, and the ACM restricts who may send them.
const (
	// MsgSensorData carries a fresh temperature sample
	// (sensor → controller).
	MsgSensorData MsgType = 1
	// MsgHeaterCmd commands the heater actuator (controller → heater).
	MsgHeaterCmd MsgType = 2
	// MsgAlarmCmd commands the alarm actuator (controller → alarm).
	MsgAlarmCmd MsgType = 3
	// MsgSetpointUpdate proposes a new setpoint (web → controller).
	MsgSetpointUpdate MsgType = 4
	// MsgStatusQuery asks the controller for environment info
	// (web → controller).
	MsgStatusQuery MsgType = 5
)

// ScenarioPolicy is the compiled policy for the Fig. 2 temperature-control
// scenario: exactly the connections of the AADL model, plus acknowledgments,
// plus the PM-server grants (everyone may fork/exec during load via the
// scenario process; only the scenario loader may kill or assign ACIDs; the
// web interface is explicitly denied kill).
//
// The same structure is produced by compiling testdata/tempcontrol.aadl with
// internal/aadl; TestScenarioPolicyMatchesAADL pins the two together.
func ScenarioPolicy() *Policy { return scenarioPolicy(false, false, QuotaUnlimited) }

// ACIDBACnetGateway identifies the optional BACnet gateway process (the
// Fig. 1 "secure proxy" extension): a field-bus bridge with exactly the web
// interface's authority — setpoint updates and status queries, nothing more.
const ACIDBACnetGateway ACID = 106

// ACIDTenantGateway identifies the tenant API gateway subject: the
// occupant-scale API tier's board-side identity. Like the BACnet gateway it
// holds exactly the web interface's authority — setpoint updates and status
// queries toward the controller — so even a fully compromised tenant tier
// can never reach the actuator drivers or kill anything.
const ACIDTenantGateway ACID = 107

// ScenarioPolicyWithTenantGateway extends the scenario policy with the
// tenant API gateway subject, the certified row the online monitor verifies
// tenant→head-end traffic against.
func ScenarioPolicyWithTenantGateway() *Policy { return ScenarioPolicyWithGateways(false, true) }

// ScenarioPolicyWithGateways is the scenario policy with the optional
// gateway rows a deployment asks for: the BACnet field-bus proxy, the tenant
// API gateway, or both, for a board that serves a supervisory network and an
// occupant API at once. Each row is the same whatever else is present;
// neither gateway can reach the other.
func ScenarioPolicyWithGateways(bacnet, tenant bool) *Policy {
	return scenarioPolicy(bacnet, tenant, QuotaUnlimited)
}

// ScenarioPolicyWithForkQuota is the E8 variant: identical, except the web
// interface may fork (it runs worker threads in the paper) under a hard
// quota, defeating fork bombs.
func ScenarioPolicyWithForkQuota(webForkQuota int) *Policy {
	return scenarioPolicy(false, false, webForkQuota)
}

// scenarioPolicy writes the scenario's rows and grants once. bacnet and
// tenant add the optional gateway rows; webForkQuota budgets the web
// interface's fork grant.
func scenarioPolicy(bacnet, tenant bool, webForkQuota int) *Policy {
	p := NewPolicy()
	m := p.IPC
	m.Name(ACIDTempSensor, "tempSensProc").
		Name(ACIDTempControl, "tempProc").
		Name(ACIDHeaterAct, "heaterActProc").
		Name(ACIDAlarmAct, "alarmProc").
		Name(ACIDWebInterface, "webInterface").
		Name(ACIDScenario, "scenario")

	// Sensor pushes samples to the controller.
	m.Allow(ACIDTempSensor, ACIDTempControl, MsgSensorData)
	m.AllowBidirectionalAck(ACIDTempSensor, ACIDTempControl)
	// Controller commands the two actuators.
	m.Allow(ACIDTempControl, ACIDHeaterAct, MsgHeaterCmd)
	m.AllowBidirectionalAck(ACIDTempControl, ACIDHeaterAct)
	m.Allow(ACIDTempControl, ACIDAlarmAct, MsgAlarmCmd)
	m.AllowBidirectionalAck(ACIDTempControl, ACIDAlarmAct)
	// Web interface may only talk to the controller: setpoint updates and
	// status queries. Each gateway gets exactly the same row.
	m.Allow(ACIDWebInterface, ACIDTempControl, MsgSetpointUpdate, MsgStatusQuery)
	m.AllowBidirectionalAck(ACIDWebInterface, ACIDTempControl)
	for _, gw := range []struct {
		on   bool
		id   ACID
		name string
	}{
		{bacnet, ACIDBACnetGateway, "bacnetGateway"},
		{tenant, ACIDTenantGateway, "tenantApiGw"},
	} {
		if gw.on {
			m.Name(gw.id, gw.name)
			m.Allow(gw.id, ACIDTempControl, MsgSetpointUpdate, MsgStatusQuery)
			m.AllowBidirectionalAck(gw.id, ACIDTempControl)
		}
	}

	s := p.Syscalls
	// The scenario loader builds the world.
	s.Grant(ACIDScenario, SysFork)
	s.Grant(ACIDScenario, SysExec)
	s.Grant(ACIDScenario, SysKill)
	s.Grant(ACIDScenario, SysSetACID)
	// The web interface runs worker children ("5 fixed child threads"), so it
	// holds a fork grant — unbudgeted in the paper's policy, the residual
	// weakness the paper notes ("it can potentially launch a fork bomb").
	// Nobody besides the loader is granted kill — in particular not the web
	// interface.
	s.GrantQuota(ACIDWebInterface, SysFork, webForkQuota)
	return p.Seal()
}
