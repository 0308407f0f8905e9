package obs

import "iter"

// RingBlockSize is the size of one BlockRing block. A block holds a few
// hundred span records or a few dozen console lines; it is also the unit
// of eviction, so it bounds how far a full ring overshoots its capacity.
const RingBlockSize = 4 << 10

// ringFirstBlock is the size of a ring's first block. Most rings hold only
// a board's few boot lines, so a ring starts small and doubles each new
// block until it reaches RingBlockSize.
const ringFirstBlock = 512

// BlockRing retains the newest cap variable-length records, appended to
// fixed-size pointer-free byte blocks. The ring does not know the record
// format: its owner encodes each record into the block Grow returns and
// decodes blocks it reads through Blocks. The first record of a block must
// be encoded on its own (Grow reports when), so an owner may encode later
// records as deltas against the one before and any block still decodes
// alone.
//
// The oldest block is evicted whole once the newer blocks alone hold cap
// records; until then its leading records are surplus, which Blocks tells
// readers to skip, so readers always see exactly the newest cap records.
// The first block is small, and each new block doubles the last up to
// RingBlockSize. An evicted standard-size block is recycled for the next
// one opened, so a full ring allocates nothing, and no block is allocated
// before the first record arrives. A record longer than RingBlockSize gets
// a block of its own size; neither it nor a small block is recycled.
//
// Like the rest of a Board, a ring is unsynchronised.
type BlockRing struct {
	cap     int
	blocks  []ringBlock // oldest first
	held    int         // records across blocks, surplus included
	dropped int64
	spare   []byte
	next    int // the size of the next block opened, 0 before the first
}

// ringBlock is one block's encoded bytes and how many records they hold.
type ringBlock struct {
	buf []byte
	n   int
}

// NewBlockRing returns an empty ring that retains the newest capacity
// records; capacity < 1 means 1.
func NewBlockRing(capacity int) *BlockRing {
	return &BlockRing{cap: max(capacity, 1)}
}

// Grow readies the ring for one record of at most n encoded bytes and
// returns the block to append it to. When the newest block has no room for
// n more bytes a new block is opened; first then reports that the record
// opens its block and must be encoded without reference to earlier
// records. The caller appends exactly one record and hands the block back
// to Commit.
func (r *BlockRing) Grow(n int) (b []byte, first bool) {
	if k := len(r.blocks); k > 0 {
		if b := r.blocks[k-1].buf; cap(b)-len(b) >= n {
			return b, false
		}
	}
	var buf []byte
	switch {
	case n > RingBlockSize:
		buf = make([]byte, 0, n)
	case r.spare != nil:
		buf, r.spare = r.spare[:0], nil
	default:
		size := max(r.next, ringFirstBlock)
		for size < n {
			size *= 2
		}
		buf = make([]byte, 0, size)
		r.next = min(2*size, RingBlockSize)
	}
	r.blocks = append(r.blocks, ringBlock{buf: buf})
	return buf, true
}

// Commit stores b, the block Grow returned with one record appended, and
// evicts the oldest block once the blocks after it hold cap records.
func (r *BlockRing) Commit(b []byte) {
	last := &r.blocks[len(r.blocks)-1]
	last.buf = b
	last.n++
	r.held++
	if r.held > r.cap {
		r.dropped++
	}
	if old := r.blocks[0]; r.held-old.n >= r.cap {
		r.held -= old.n
		k := copy(r.blocks, r.blocks[1:])
		r.blocks[k] = ringBlock{}
		r.blocks = r.blocks[:k]
		if cap(old.buf) == RingBlockSize {
			r.spare = old.buf
		}
	}
}

// surplus reports how many leading records of the oldest block are past
// the ring's capacity.
func (r *BlockRing) surplus() int { return max(r.held-r.cap, 0) }

// Len reports how many records the ring retains (at most its capacity).
func (r *BlockRing) Len() int { return min(r.held, r.cap) }

// Dropped reports how many records fell out of the ring: every record
// appended while it already held cap, whether or not that append evicted
// a block.
func (r *BlockRing) Dropped() int64 { return r.dropped }

// Blocks yields every block's encoded bytes, oldest first, with how many
// of its leading records the reader must decode (later records are deltas
// against them) but not report. The skip count is nonzero only for the
// oldest block.
func (r *BlockRing) Blocks() iter.Seq2[[]byte, int] {
	return func(yield func([]byte, int) bool) {
		for i, blk := range r.blocks {
			skip := 0
			if i == 0 {
				skip = r.surplus()
			}
			if !yield(blk.buf, skip) {
				return
			}
		}
	}
}
