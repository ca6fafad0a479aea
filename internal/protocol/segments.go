package protocol

// Segments is a message encoded for one vectored send, and the module's one
// SharedWriter: bytes given to Write are copied into storage of its own,
// slices given to WriteShared (a message's large arrays, see Flat.Encode)
// are kept by reference, and Buffers lists the whole message in order. Both
// transports send through it: a stream frame (header, then the message) in
// one writev, an HTTP request body read piece by piece. Whoever fills one
// vouches for what it was handed by reference until the send is done; Reset
// then drops every reference, so a pooled Segments pins nothing.
type Segments struct {
	own []byte
	// cuts lists the shared slices in message order.
	cuts   [maxSharedSegments]sharedSegment
	ncut   int
	shared int // bytes in cuts
	vec    [2*maxSharedSegments + 2][]byte
}

// sharedSegment is a slice sent by reference after own[:at].
type sharedSegment struct {
	at int
	p  []byte
}

// maxSharedSegments is how many slices a message carries by reference (a
// task response has at most three large arrays); more are copied.
const maxSharedSegments = 4

func (s *Segments) Write(p []byte) (int, error) {
	s.own = append(s.own, p...)
	return len(p), nil
}

func (s *Segments) WriteShared(p []byte) (int, error) {
	if s.ncut == len(s.cuts) {
		return s.Write(p)
	}
	s.cuts[s.ncut] = sharedSegment{at: len(s.own), p: p}
	s.ncut++
	s.shared += len(p)
	return len(p), nil
}

// Len is the length of the message so far.
func (s *Segments) Len() int { return len(s.own) + s.shared }

// Copied returns the message when all of it was copied — nothing is held by
// reference — in storage s reuses after Reset; ok is false otherwise.
func (s *Segments) Copied() (msg []byte, ok bool) { return s.own, s.ncut == 0 }

// Buffers lists head (a frame header; nil for none) and then the message, in
// order: what a vectored write sends. The list is storage of s's own, valid
// until the next Buffers or Reset; net.Buffers consumes it as it goes.
func (s *Segments) Buffers(head []byte) [][]byte {
	vec, from := s.vec[:0], 0
	if len(head) > 0 {
		vec = append(vec, head)
	}
	for _, c := range s.cuts[:s.ncut] {
		if c.at > from {
			vec = append(vec, s.own[from:c.at])
			from = c.at
		}
		if len(c.p) > 0 {
			vec = append(vec, c.p)
		}
	}
	if len(s.own) > from {
		vec = append(vec, s.own[from:])
	}
	return vec
}

// Reset empties s for the next message, dropping every reference to shared
// storage; copy storage past flatPoolMaxBytes is dropped too.
func (s *Segments) Reset() {
	clear(s.cuts[:])
	clear(s.vec[:])
	s.ncut, s.shared, s.own = 0, 0, s.own[:0]
	if cap(s.own) > flatPoolMaxBytes {
		s.own = nil
	}
}
