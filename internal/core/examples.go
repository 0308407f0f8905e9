package core

// This file captures the paper's concrete identities: the Fig. 3
// three-application example matrix (used verbatim by experiment E2), and
// the message types of the Fig. 2 / Section IV temperature-control
// scenario. The scenario's subjects, their ac_ids and its policy are
// compiled from its AADL model (internal/aadl's TempControl, by
// internal/bas), never written here.

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
