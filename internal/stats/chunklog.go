package stats

// chunkLen is the ChunkLog chunk size in entries.
const chunkLen = 4096

// ChunkLog is an append-only sequence stored as fixed chunkLen-entry
// chunks. Appending never moves an entry already stored, so a log of
// millions of entries costs one allocation per chunk instead of
// re-copying itself at every doubling, and entry addresses stay valid.
// The device keeps its registration log, whose length nothing knows in
// advance, in one. The zero value is an empty log.
type ChunkLog[T any] struct {
	chunks [][]T // every chunk but the last is full
	n      int
}

// Len returns the number of entries appended.
func (l *ChunkLog[T]) Len() int { return l.n }

// Append adds one entry at index Len().
func (l *ChunkLog[T]) Append(v T) {
	if l.n == len(l.chunks)*chunkLen {
		l.chunks = append(l.chunks, make([]T, 0, chunkLen))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, v)
	l.n++
}

// At returns entry i (0 <= i < Len()).
func (l *ChunkLog[T]) At(i int) *T { return &l.chunks[i/chunkLen][i%chunkLen] }
