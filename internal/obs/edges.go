package obs

// EdgeID is the dense board-local name of one (src, dst, label) IPC triple.
// Kernels resolve it once, when a channel is made (an ACM cell's first use,
// an seL4 endpoint capability's install, a Linux mq_open), so every later
// delivery books IPC usage, spans and the policy monitor by array index
// instead of hashing three strings.
type EdgeID uint32

// Edge is one (src, dst, label) triple, named in whatever namespace the
// recording kernel uses: ACM subject names on MINIX, thread/endpoint names
// on seL4, process/queue names on Linux.
type Edge struct {
	Src   string
	Dst   string
	Label string
}

// Edges is a board's intern table: it issues each distinct triple one
// EdgeID, densely from zero, and turns ids back into strings at report
// time. Ids are stable for the table's lifetime and depend on interning
// order, so nothing that is reported may depend on an id's value; every
// report sorts by the strings. Like the rest of a Board, the table is
// unsynchronised.
type Edges struct {
	ids   map[Edge]EdgeID
	edges []Edge
}

// NewEdges returns an empty table.
func NewEdges() *Edges {
	return &Edges{ids: make(map[Edge]EdgeID)}
}

// Intern returns the id of (src, dst, label), issuing the next one the
// first time the triple is seen. It hashes the strings, so it belongs where
// a channel is made or on a slow path, never on a delivery.
func (e *Edges) Intern(src, dst, label string) EdgeID {
	k := Edge{Src: src, Dst: dst, Label: label}
	if id, ok := e.ids[k]; ok {
		return id
	}
	id := EdgeID(len(e.edges))
	e.edges = append(e.edges, k)
	e.ids[k] = id
	return id
}

// Lookup returns the id of (src, dst, label) without issuing one; ok is
// false for a triple never interned.
func (e *Edges) Lookup(src, dst, label string) (EdgeID, bool) {
	id, ok := e.ids[Edge{Src: src, Dst: dst, Label: label}]
	return id, ok
}

// Edge returns the triple id names. id must have been issued by e.
func (e *Edges) Edge(id EdgeID) Edge { return e.edges[id] }

// Len reports how many ids the table has issued.
func (e *Edges) Len() int { return len(e.edges) }
