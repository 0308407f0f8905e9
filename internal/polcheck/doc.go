// Package polcheck is the cross-platform IPC policy static analyzer: it
// proves security properties of a policy before anything boots, the
// complement of the dynamic attack experiments in internal/attack.
//
// The paper validates its seL4 configuration by brute-force capability
// enumeration and "expects the CapDL file to be correct; for high-assurance
// systems this file can also be machine verified". polcheck is that machine
// verification, generalised to all three policy formalisms the repo models:
//
//   - the MINIX access control matrix (core.Matrix / core.Policy),
//   - the seL4 capability distribution (capdl.Spec), and
//   - the Linux discretionary access control model over POSIX queues
//     (DACModel, mirroring internal/linuxsim's permission predicate).
//
// Each source normalises into the same directed access graph: subject nodes
// (processes/components), channel nodes (endpoints/queues), and device
// nodes, with flow edges labelled by the rights that justify them and kill
// edges for destroy authority. On the graph the analyzer offers:
//
//   - transitive reachability / information-flow closure (Graph.Reach), in
//     two modes: ReachDirect follows only conduits (channels, devices) and
//     answers "can A deliver data to B without any other subject's code
//     cooperating" — the spoofing question; ReachTransitive also flows
//     through subjects and answers "can data originating at A ever influence
//     B" — the information-flow question;
//   - a declarative property language (ParseProperties / CheckProperties)
//     with DenyPath, AllowPath, NoKillAuthority and OnlyEndpoint encoding
//     the paper's Section IV-D attack goals as static assertions;
//   - structural lint (StructuralFindings) for over-broad or inert grants;
//   - a least-privilege audit (AuditMatrix) diffing static grants against
//     the dynamic IPC usage aggregated by machine.IPCLog, flagging
//     granted-but-never-used rights.
//
// Findings render both human-readable (Report.Text) and machine-readable
// (Report JSON marshalling). Integration points: internal/aadl lints
// generated matrices post-compile, internal/bas gates deployments on the
// scenario property set, and bas policy analyzes the shipped tempcontrol
// scenario end-to-end.
package polcheck
