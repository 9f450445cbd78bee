package retransmit

import "testing"

// beat is a Repeated payload, like a leader's keepalive promote.
type beat struct{}

func (beat) RepeatedBySender() {}

// TestRawPayloadCountsAsHeard: under GiveUpTicks, an envelope to a peer that
// never acks is abandoned once its backoff is capped and the peer has been
// silent for GiveUpTicks. A peer whose only traffic is raw Repeated payloads
// is not silent: p1 keeps resending to a p2 it hears that way, and abandons
// the same envelope when p2 sends nothing.
func TestRawPayloadCountsAsHeard(t *testing.T) {
	for _, tc := range []struct {
		name      string
		beatEvery int // 0: p2 sends nothing
		abandoned int64
	}{
		{"peer sends raw payloads", 5, 0},
		{"peer silent", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := Wrap(toP2Factory, Options{Seed: 1, GiveUpTicks: 20})(1, 2).(*Automaton)
			c := &handCtx{}
			a.Init(c)
			a.Input(c, "x")
			for i := 1; i <= 400; i++ {
				a.Tick(c)
				if tc.beatEvery > 0 && i%tc.beatEvery == 0 {
					a.Recv(c, 2, beat{})
				}
			}
			if got := a.Abandoned(); got != tc.abandoned {
				t.Errorf("abandoned %d envelopes, want %d", got, tc.abandoned)
			}
			if got, want := a.PendingEnvelopes(), 1-int(tc.abandoned); got != want {
				t.Errorf("%d envelopes pending, want %d", got, want)
			}
		})
	}
}
