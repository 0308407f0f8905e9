package aadl

import _ "embed"

// TempControl is the Fig. 2 temperature-control scenario model: the one
// source every MINIX ACM and seL4 assembly a scenario board boots is
// compiled from.
//
//go:embed tempcontrol.aadl
var TempControl string

// TempControlSystem is TempControl's system implementation.
const TempControlSystem = "temp_control.impl"
