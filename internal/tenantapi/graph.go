package tenantapi

import (
	"slices"
	"sync"

	"mkbas/internal/obs"
	"mkbas/internal/polcheck"
	"mkbas/internal/polcheck/monitor"
)

// The tenant tier's authorisation model is not ad-hoc if/else in the
// gateway: it is a certified polcheck access graph, the same formalism the
// kernels' ACM/CapDL/DAC policies normalise into. Role subjects hold
// labelled edges to the gateway subject; the gateway alone holds edges to
// the head-end. The gateway enforces by asking the online monitor whether
// the (role, gateway, route-label) edge exists *under the current origin
// assignment* — so demoting a compromised tenant origin shrinks its
// reachable set exactly as OAMAC-style demotion does for board subjects.

// GraphPlatform labels the tenant tier's access graph in reports.
const GraphPlatform = "tenant-api"

// AccessGraph builds the certified static graph for the tenant tier.
func AccessGraph() *polcheck.Graph {
	g := polcheck.NewGraph(GraphPlatform)
	gw := polcheck.Subject(SubjectGateway)
	he := polcheck.Subject(SubjectHeadEnd)
	g.AddFlow(polcheck.Subject(SubjectOccupant), gw,
		[]string{routeLabels[RouteStatus], routeLabels[RouteWhoAmI]}, "tenant-rbac")
	g.AddFlow(polcheck.Subject(SubjectManager), gw,
		[]string{routeLabels[RouteStatus], routeLabels[RouteSetpoint], routeLabels[RouteDiagnostics], routeLabels[RouteWhoAmI]}, "tenant-rbac")
	g.AddFlow(polcheck.Subject(SubjectVendor), gw,
		[]string{routeLabels[RouteDiagnostics], routeLabels[RouteWhoAmI]}, "tenant-rbac")
	// The gateway's own authority over the supervisory backend: read-side
	// polling and the write path a manager's setpoint request rides.
	g.AddFlow(gw, he, []string{"poll", routeLabels[RouteSetpoint]}, "tenant-rbac")
	return g
}

// Origins assigns the tier's static origin labels: occupant and vendor
// sessions arrive from the building's web surface, managers are operator
// credentialed, and the gateway/head-end pair is deployed infrastructure.
func Origins() map[string]monitor.Origin {
	return map[string]monitor.Origin{
		SubjectOccupant: monitor.OriginWeb,
		SubjectVendor:   monitor.OriginWeb,
		SubjectManager:  monitor.OriginOperator,
		SubjectGateway:  monitor.OriginBoot,
		SubjectHeadEnd:  monitor.OriginBoot,
	}
}

// access is the tier's certified graph, read once per process into what
// every gateway shares read-only: the monitor's static edge index, and the
// role matrix, in which an edge label from a role to the gateway grants
// the route.
var access = sync.OnceValue(func() (a struct {
	index   *monitor.Index
	allowed [numRoles][NumRoutes]bool
}) {
	graph := AccessGraph()
	a.index = monitor.NewIndex(graph, monitor.IndexOptions{Origins: Origins()})
	for r := Role(0); r < numRoles; r++ {
		for _, e := range graph.FlowsFrom(pSubject(r.Subject())) {
			for _, label := range e.Labels {
				if rt := slices.Index(routeLabels[:], label); rt >= 0 && e.To.Name == SubjectGateway {
					a.allowed[r][rt] = true
				}
			}
		}
	}
	return a
})

// NewMonitor builds one gateway's online monitor over the certified tenant
// graph, emitting drift/demotion events into events (nil discards them).
// Its origin labels are its own: demoting a role on one gateway leaves
// every other gateway's view unchanged.
func NewMonitor(events *obs.EventLog) *monitor.Monitor {
	return monitor.New(access().index, monitor.Options{Events: events})
}

// pSubject is a terse subject-node constructor for graph queries.
func pSubject(name string) polcheck.Node { return polcheck.Subject(name) }
