package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// numBuckets is one bucket per possible highest differing bit between two
// non-negative int64 times (bits 0..62, buckets 1..63) plus bucket 0 for
// equal times.
const numBuckets = 64

// radixQueue is the engine's pending-event queue: a monotone radix heap
// ordered by (at, seq).
//
// It relies on the engine never scheduling an event before base, the time of
// the last popped event (Schedule clamps delays to ≥ 0 and base never passes
// the clock). Bucket k > 0 holds the events whose at first differs from base
// in bit k-1, that is k = bits.Len64(at ^ base); bucket 0 holds the events at
// exactly base, in seq order. Every event in bucket k is earlier than every
// event in a higher bucket, so the earliest event is in the lowest non-empty
// bucket. A push computes its bucket and appends, keeping a per-bucket lower
// bound on the times; a pop from an empty bucket 0 refills it by moving base
// to the lowest non-empty bucket's bound and redistributing that bucket in
// one pass, its events all landing in lower buckets. An event thus moves down
// at most once per bit of its distance from base, and far timers are not
// touched until everything nearer has drained.
//
// Buckets are intrusive doubly-linked lists through Event.next/prev, so the
// queue owns no slice and Cancel unlinks in O(1). Within a bucket, events with
// equal at stay in seq order: they always share a bucket, redistribution
// keeps their relative order, and a new event carries the largest seq yet and
// is appended at the tail. That is what makes bucket 0 seq-ordered without a
// sort.
type radixQueue struct {
	base time.Duration
	mask uint64 // bit k set iff bucket k is non-empty
	n    int    // live events
	head [numBuckets]*Event
	tail [numBuckets]*Event
	// low[k] is a lower bound on the times in non-empty bucket k: exact
	// until an event is removed from the bucket, and always the time of
	// an event that was in it, so it lies in bucket k's range.
	low [numBuckets]time.Duration
}

// bucketOf is the bucket an event at `at` belongs in relative to base.
func bucketOf(at, base time.Duration) int32 {
	return int32(bits.Len64(uint64(at ^ base)))
}

// push queues ev. ev.at must not be before base.
func (q *radixQueue) push(ev *Event) {
	q.link(ev, bucketOf(ev.at, q.base))
	q.n++
}

// link appends ev to the tail of bucket k.
func (q *radixQueue) link(ev *Event, k int32) {
	ev.bucket = k
	ev.next = nil
	t := q.tail[k]
	ev.prev = t
	if t == nil {
		q.head[k] = ev
		q.mask |= 1 << uint(k)
		q.low[k] = ev.at
	} else {
		t.next = ev
		if ev.at < q.low[k] {
			q.low[k] = ev.at
		}
	}
	q.tail[k] = ev
}

// remove unlinks a queued event.
func (q *radixQueue) remove(ev *Event) {
	k := ev.bucket
	prev, next := ev.prev, ev.next
	if prev == nil {
		q.head[k] = next
	} else {
		prev.next = next
	}
	if next == nil {
		q.tail[k] = prev
	} else {
		next.prev = prev
	}
	if q.head[k] == nil {
		q.mask &^= 1 << uint(k)
	}
	q.n--
}

// peek returns the time of the earliest event without moving base. The
// lowest bucket's bound may be stale, so it scans that bucket.
func (q *radixQueue) peek() (time.Duration, bool) {
	switch {
	case q.mask == 0:
		return 0, false
	case q.mask&1 != 0:
		return q.base, true
	}
	ev := q.head[bits.TrailingZeros64(q.mask)]
	min := ev.at
	for ev = ev.next; ev != nil; ev = ev.next {
		if ev.at < min {
			min = ev.at
		}
	}
	return min, true
}

// popUntil removes and returns the earliest event if it is due at or before
// limit, and returns nil otherwise. It moves base only to a bucket's lower
// bound, and only when that bound is at or before limit, so base never
// passes a pending event nor the clock the caller sets when it stops: a run
// that stops short may still be followed by a schedule between the clock and
// the next pending event.
func (q *radixQueue) popUntil(limit time.Duration) *Event {
	for q.mask&1 == 0 {
		if q.mask == 0 {
			return nil
		}
		k := bits.TrailingZeros64(q.mask)
		if q.low[k] > limit {
			return nil
		}
		if ev := q.head[k]; ev.next == nil {
			// A lone event is the minimum: pop it without the round trip
			// through bucket 0.
			if ev.at > limit {
				return nil
			}
			q.head[k], q.tail[k] = nil, nil
			q.mask &^= 1 << uint(k)
			q.base = ev.at
			q.n--
			return ev
		}
		q.refill(k)
	}
	if q.base > limit {
		return nil
	}
	ev := q.head[0]
	next := ev.next
	q.head[0] = next
	if next == nil {
		q.tail[0] = nil
		q.mask &^= 1
	} else {
		next.prev = nil
	}
	q.n--
	return ev
}

// refill moves base to bucket k's lower bound and redistributes the bucket
// into the buckets below it in one pass. When the bound is exact, the
// earliest events land in bucket 0; when a removal left it stale, they land
// in some lower bucket that the next refill reaches.
func (q *radixQueue) refill(k int) {
	ev := q.head[k]
	base := q.low[k]
	q.head[k], q.tail[k] = nil, nil
	q.mask &^= 1 << uint(k)
	q.base = base
	for ev != nil {
		next := ev.next
		q.link(ev, bucketOf(ev.at, base))
		ev = next
	}
}

// check verifies the queue's structure, reporting each failure as
// report(invariant, detail). Walks are bounded by the live count, so a
// corrupted link that closes a cycle is reported rather than followed
// forever.
func (q *radixQueue) check(now time.Duration, report func(invariant, detail string)) {
	count := 0
	for k := 0; k < numBuckets; k++ {
		head, tail := q.head[k], q.tail[k]
		if (head != nil) != (q.mask&(1<<uint(k)) != 0) {
			report("sim.queue_mask", fmt.Sprintf("bucket %d: mask bit %v, head %p",
				k, q.mask&(1<<uint(k)) != 0, head))
		}
		if (head == nil) != (tail == nil) {
			report("sim.queue_links", fmt.Sprintf("bucket %d: head %p, tail %p", k, head, tail))
			continue
		}
		var prev *Event
		for ev := head; ev != nil; prev, ev = ev, ev.next {
			if count++; count > q.n {
				report("sim.queue_count", fmt.Sprintf("bucket %d: more than %d events linked (cycle?)", k, q.n))
				return
			}
			if ev.prev != prev {
				report("sim.queue_links", fmt.Sprintf("bucket %d: event (at=%v seq=%d) prev %p, want %p",
					k, ev.at, ev.seq, ev.prev, prev))
			}
			if want := bucketOf(ev.at, q.base); ev.bucket != int32(k) || want != int32(k) {
				report("sim.queue_bucket", fmt.Sprintf("event (at=%v seq=%d) in bucket %d, field %d, want %d for base %v",
					ev.at, ev.seq, k, ev.bucket, want, q.base))
			}
			if k == 0 && prev != nil && ev.seq <= prev.seq {
				report("sim.queue_seq", fmt.Sprintf("bucket 0: seq %d follows seq %d", ev.seq, prev.seq))
			}
			if ev.expired {
				report("sim.heap_expired", fmt.Sprintf("bucket %d: event (at=%v seq=%d) already expired", k, ev.at, ev.seq))
			}
			if ev.at < now {
				report("sim.event_in_past", fmt.Sprintf("bucket %d: event at=%v behind clock %v", k, ev.at, now))
			}
			if ev.at < q.low[k] {
				report("sim.queue_low", fmt.Sprintf("bucket %d: event at=%v below the bucket's bound %v", k, ev.at, q.low[k]))
			}
		}
		if prev != tail {
			report("sim.queue_links", fmt.Sprintf("bucket %d: tail %p, last linked event %p", k, tail, prev))
		}
		if head != nil && bucketOf(q.low[k], q.base) != int32(k) {
			report("sim.queue_low", fmt.Sprintf("bucket %d: bound %v outside the bucket for base %v", k, q.low[k], q.base))
		}
	}
	if count != q.n {
		report("sim.queue_count", fmt.Sprintf("%d events linked, Pending() = %d", count, q.n))
	}
}
