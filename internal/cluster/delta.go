package cluster

import (
	"bytes"
	"fmt"

	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
)

// The cluster wire format. A Delta is one node's periodic state
// announcement: the mitigation-ladder digests that changed since the last
// frame the peer acknowledged, framed as a versioned, checksummed
// statecodec container — the same codec the checkpoint plane trusts, so a
// torn, truncated or hostile peer frame fails with a typed error
// (statecodec.ErrCorrupt and friends) and never panics or over-reads.
// An empty delta is meaningful: it is the heartbeat the failure detector
// feeds on.
//
// Every digest carries its own last-seen stamp and merges with
// last-writer-wins semantics, so frames are idempotent and
// order-tolerant: the transport may retry, duplicate or reorder them and
// replicas still converge on the owner's state. That is the whole
// reconciliation protocol — anti-entropy after a partition is just a
// delta with a zero watermark (DeltaFull), carrying everything.

// tagDelta opens a cluster delta block in a statecodec frame. 0x434C, the
// layout that also carried reputation-overlay entries and session
// digests, is retired: never reuse it. Its frames fail at the tag.
const tagDelta uint16 = 0x434D

// Delta kinds.
const (
	// DeltaIncremental carries changes since the sender's per-peer
	// watermark.
	DeltaIncremental uint8 = 1
	// DeltaFull carries the sender's complete replicable state — the
	// anti-entropy frame sent on join and heal.
	DeltaFull uint8 = 2
)

// Delta is one node's state announcement.
type Delta struct {
	// From is the sending node's ID.
	From string
	// Seq is the sender's frame sequence number, monotone per sender.
	Seq uint64
	// SentUnixNano is the sender's clock when the frame was built; the
	// receiver's reconcile-lag gauge is the age of the newest applied
	// frame per peer.
	SentUnixNano int64
	// Kind is DeltaIncremental or DeltaFull.
	Kind uint8
	// Ladders carries mitigation-ladder digests.
	Ladders []mitigate.ClientDigest
}

// EncodeInto serialises the delta into w as a tagged block.
func (d *Delta) EncodeInto(w *statecodec.Writer) {
	w.Tag(tagDelta)
	w.String(d.From)
	w.Uint64(d.Seq)
	w.Int64(d.SentUnixNano)
	w.Uint8(d.Kind)
	w.Uint32(uint32(len(d.Ladders)))
	for _, l := range d.Ladders {
		w.String(l.Key)
		w.Float64(l.Score)
		w.Uint8(uint8(l.Level))
		w.Int(l.Challenged)
		w.Time(l.PassUntil)
		w.Time(l.LastSeen)
	}
}

// EncodeFrame serialises the delta as a complete statecodec container —
// magic, version, length and checksum included — ready for a transport.
func (d *Delta) EncodeFrame() ([]byte, error) {
	w := statecodec.NewWriter()
	d.EncodeInto(w)
	var buf bytes.Buffer
	buf.Grow(w.Len() + 22)
	if err := statecodec.Encode(&buf, w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeFrame validates a transport frame and decodes the delta inside.
// Every failure mode — bad magic, version skew, checksum mismatch,
// truncation, out-of-range fields — returns a typed statecodec error;
// hostile bytes never panic. The frame must contain exactly one delta.
func DecodeFrame(frame []byte) (*Delta, error) {
	br := bytes.NewReader(frame)
	r, err := statecodec.Decode(br)
	if err != nil {
		return nil, err
	}
	d, err := decodeDelta(r)
	if err != nil {
		return nil, err
	}
	// Exactly one delta, nothing else: slack inside the container or
	// bytes after it both mean a frame this node did not produce.
	if rem := r.Remaining() + br.Len(); rem != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after delta", statecodec.ErrCorrupt, rem)
	}
	return d, nil
}

func decodeDelta(r *statecodec.Reader) (*Delta, error) {
	if err := r.Expect(tagDelta); err != nil {
		return nil, err
	}
	d := &Delta{
		From:         r.String(),
		Seq:          r.Uint64(),
		SentUnixNano: r.Int64(),
		Kind:         r.Uint8(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if d.Kind != DeltaIncremental && d.Kind != DeltaFull {
		return nil, fmt.Errorf("%w: delta kind %d", statecodec.ErrCorrupt, d.Kind)
	}
	// Minimum ladder entry: empty key (4) + score (8) + level (1) +
	// challenged (8) + two timestamps (12 each).
	n := r.Count(4 + 8 + 1 + 8 + 12 + 12)
	if n > 0 {
		d.Ladders = make([]mitigate.ClientDigest, 0, n)
	}
	for i := 0; i < n; i++ {
		l := mitigate.ClientDigest{
			Key:        r.String(),
			Score:      r.Float64(),
			Level:      mitigate.Action(r.Uint8()),
			Challenged: r.Int(),
			PassUntil:  r.Time(),
			LastSeen:   r.Time(),
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if l.Level > mitigate.Block {
			return nil, fmt.Errorf("%w: ladder rung %d", statecodec.ErrCorrupt, uint8(l.Level))
		}
		d.Ladders = append(d.Ladders, l)
	}
	return d, r.Err()
}
