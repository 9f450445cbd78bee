package bench

import "testing"

// TestE14QuorumStarveWeakerThanLeaderStarve pins E14's claim at both
// workload scales: redirecting the starvation target from the leader to a
// quorum transversal of its followers never delays convergence MORE than
// starving the leader, and on the transform workload — where the whole
// promotion pipeline runs through the leader's own step loop — it is
// STRICTLY weaker. Sigma's attack surface is not EC's: the pipeline's
// source outranks its audience.
func TestE14QuorumStarveWeakerThanLeaderStarve(t *testing.T) {
	for _, opts := range []Options{{Quick: true}, {}} {
		name := "full"
		if opts.Quick {
			name = "quick"
		}
		t.Run(name, func(t *testing.T) {
			cells := e13ConvergedAt(t, table(t, opts, "E14"))
			for _, workload := range []string{"broadcast (E9)", "transform (E3)"} {
				leader := cells[[2]string{workload, "leader-aware"}]
				quorum := cells[[2]string{workload, "quorum-starve"}]
				if leader == 0 || quorum == 0 {
					t.Fatalf("%s: missing scheduler rows in %v", workload, cells)
				}
				if quorum > leader {
					t.Errorf("%s: quorum-starve converged at %d, LATER than leader-aware at %d — sparing the leader gained adversarial power; re-examine the claim text", workload, quorum, leader)
				}
			}
			leader := cells[[2]string{"transform (E3)", "leader-aware"}]
			quorum := cells[[2]string{"transform (E3)", "quorum-starve"}]
			if quorum >= leader {
				t.Errorf("transform: quorum-starve converged at %d, want strictly earlier than leader-aware's %d (the leader-routed pipeline is the stronger target)", quorum, leader)
			}
		})
	}
}
