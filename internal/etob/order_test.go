package etob

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// The leader sends a promote in each step that grows promote_i, and its
// counter advances once per tick, so promotes sent between two ticks share
// a counter. The tests in this file pin the (Counter, len(Seq)) order that
// receivers adopt them by.

// acksTo returns the acks in out addressed to p: one per ack broadcast.
func acksTo(out []sent, p model.ProcID) []AckMsg {
	var acks []AckMsg
	for _, s := range out {
		if ack, ok := s.payload.(AckMsg); ok && s.to == p {
			acks = append(acks, ack)
		}
	}
	return acks
}

// TestSameCounterShorterPromoteDropped: of two promotes with one counter,
// the longer was sent later. Delivered after it, the shorter one is stale:
// d_i keeps the longer sequence, and the commit extension acknowledges
// nothing.
func TestSameCounterShorterPromoteDropped(t *testing.T) {
	short := PromoteMsg{Seq: []string{"a"}, Counter: 3}
	long := PromoteMsg{Seq: []string{"a", "b"}, Counter: 3}
	var out []sent
	ctx := capCtx{self: 2, n: 3, fd: model.ProcID(1), out: &out}
	a := CommitFactory()(2, 3).(*CommitAutomaton)
	a.Recv(ctx, 1, long)
	a.Recv(ctx, 1, short)
	a.Recv(ctx, 1, long) // a duplicate is no newer either
	if got := a.Delivered(); !slices.Equal(got, long.Seq) {
		t.Errorf("d_i = %v after the shorter same-counter promote, want %v", got, long.Seq)
	}
	if acks := acksTo(out, 2); len(acks) != 1 || acks[0].Len != 2 {
		t.Errorf("acks = %+v, want one, for the longer promote", acks)
	}
}

// TestSameCounterLongerPromoteAdoptedAndAcked: a longer promote with the
// counter of the last one adopted is newer. It is adopted and acknowledged,
// and so is a later promote with a higher counter and an unchanged sequence
// (a keepalive), which leaves d_i as it is.
func TestSameCounterLongerPromoteAdoptedAndAcked(t *testing.T) {
	var out []sent
	ctx := capCtx{self: 2, n: 3, fd: model.ProcID(1), out: &out}
	a := CommitFactory()(2, 3).(*CommitAutomaton)
	a.Recv(ctx, 1, PromoteMsg{Seq: []string{"a"}, Counter: 3})
	a.Recv(ctx, 1, PromoteMsg{Seq: []string{"a", "b"}, Counter: 3})
	a.Recv(ctx, 1, PromoteMsg{Seq: []string{"a", "b"}, Counter: 4})
	if got, want := a.Delivered(), []string{"a", "b"}; !slices.Equal(got, want) {
		t.Errorf("d_i = %v, want %v", got, want)
	}
	want := []AckMsg{{Leader: 1, Counter: 3, Len: 1}, {Leader: 1, Counter: 3, Len: 2}, {Leader: 1, Counter: 4, Len: 2}}
	if got := acksTo(out, 2); !slices.Equal(got, want) {
		t.Errorf("acks = %+v, want %+v", got, want)
	}
}

// TestCommitIndicationsKeepPaceWithPromotes: on a fixed-delay network with a
// stable leader, two writes reach the leader between two of its ticks. It
// promotes each in the step it learns it, under one counter, and every
// process indicates each write's prefix one ack delay after the promote
// ordering it arrives: update, promote and ack, three link delays after the
// write. A process that acknowledged only a rise of the counter would skip
// the second promote and indicate its prefix only after the next keepalive.
func TestCommitIndicationsKeepPaceWithPromotes(t *testing.T) {
	const delay = 7 // every link, self-links included
	fp := model.NewFailurePattern(3)
	obs := newCommitObserver()
	k := sim.New(fp, fd.NewOmegaStable(fp, 1), CommitFactory(), sim.Options{MinDelay: delay, MaxDelay: delay})
	k.SetObserver(obs)
	// p1 ticks at 1 + 5k: both updates reach it at 109 and 110, between its
	// ticks at 106 and 111.
	writes := []struct {
		p  model.ProcID
		at model.Time
	}{{2, 102}, {3, 103}}
	for i, w := range writes {
		k.ScheduleInput(w.p, w.at, model.BroadcastInput{ID: fmt.Sprintf("w%d", i)})
	}
	k.Run(400)

	for _, p := range fp.Correct() {
		for i, w := range writes {
			want := w.at + 3*delay
			var got model.Time = -1
			for _, c := range obs.commits[p] {
				if len(c.Prefix) > i {
					got = c.At
					break
				}
			}
			if got != want {
				t.Errorf("%v indicated a prefix of %d writes at %d, want %d (write at %d + 3 link delays)", p, i+1, got, want, w.at)
			}
		}
	}
}
