package device

import (
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// fifo is a byte-accounted packet queue. Its power-of-two ring grows on
// demand and never shrinks below its high-water mark, which keeps the
// hot path allocation-free after warm-up.
type fifo struct {
	buf   []*packet.Packet
	head  uint32
	count uint32
	bytes units.ByteSize

	// paused gates dequeue (BFC per-queue pause, Floodgate VOQ without
	// window). The port scheduler skips paused queues.
	paused bool
}

func (q *fifo) len() int             { return int(q.count) }
func (q *fifo) size() units.ByteSize { return q.bytes }
func (q *fifo) empty() bool          { return q.count == 0 }

func (q *fifo) push(p *packet.Packet) {
	if int(q.count) == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)&uint32(len(q.buf)-1)] = p
	q.count++
	q.bytes += p.Size
}

func (q *fifo) pop() *packet.Packet {
	if q.count == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & uint32(len(q.buf)-1)
	q.count--
	q.bytes -= p.Size
	return p
}

func (q *fifo) peek() *packet.Packet {
	if q.count == 0 {
		return nil
	}
	return q.buf[q.head]
}

func (q *fifo) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]*packet.Packet, n)
	for i := uint32(0); i < q.count; i++ {
		nb[i] = q.buf[(q.head+i)&uint32(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}
