package graph

import "testing"

func TestBFSDistancesOnPath(t *testing.T) {
	p := MustPath(5)
	got := BFSDistances(p, 0)
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBFSDistancesDisconnected(t *testing.T) {
	g := MustAdj(4, [][2]int{{0, 1}, {2, 3}})
	d := BFSDistances(g, 0)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Errorf("distances to other component = %d,%d, want Unreachable", d[2], d[3])
	}
	if d[1] != 1 {
		t.Errorf("dist[1] = %d, want 1", d[1])
	}
}

func TestDiameterKnown(t *testing.T) {
	tests := []struct {
		name string
		g    Graph
		want int
	}{
		{"C3", MustCycle(3), 1},
		{"C6", MustCycle(6), 3},
		{"C7", MustCycle(7), 3},
		{"C100", MustCycle(100), 50},
		{"P10", MustPath(10), 9},
		{"P1", MustPath(1), 0},
		{"K5", MustCompleteGraph(5), 1},
		{"star6", mustStar(t, 6), 2},
	}
	for _, tt := range tests {
		if got := Diameter(tt.g); got != tt.want {
			t.Errorf("%s: Diameter = %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := MustAdj(4, [][2]int{{0, 1}, {2, 3}})
	if got := Diameter(g); got != Unreachable {
		t.Errorf("Diameter = %d, want Unreachable", got)
	}
	if IsConnected(g) {
		t.Error("IsConnected = true for disconnected graph")
	}
}

func TestEccentricityCycle(t *testing.T) {
	c := MustCycle(9)
	for v := 0; v < c.N(); v++ {
		if got := Eccentricity(c, v); got != 4 {
			t.Errorf("Eccentricity(%d) = %d, want 4", v, got)
		}
	}
}

func TestIsConnectedEmptyAndSingleton(t *testing.T) {
	if !IsConnected(MustAdj(0, nil)) {
		t.Error("empty graph should count as connected")
	}
	if !IsConnected(MustAdj(1, nil)) {
		t.Error("singleton should be connected")
	}
}

func TestDistSymmetric(t *testing.T) {
	g := MustAdj(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}})
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if Dist(g, u, v) != Dist(g, v, u) {
				t.Errorf("Dist(%d,%d) != Dist(%d,%d)", u, v, v, u)
			}
		}
	}
}
