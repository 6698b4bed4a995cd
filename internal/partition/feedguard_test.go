package partition

import (
	"errors"
	"strings"
	"testing"

	"graphpart/internal/graph"
)

// TestStreamBuilderFeedAfterFinish pins the sequential one-worker stream
// builder: a late Feed is refused and Finish keeps returning the same summary.
func TestStreamBuilderFeedAfterFinish(t *testing.T) {
	b, err := NewShardedStreamBuilder(Random{}, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Feed(EdgeBatch{Edges: []graph.Edge{{Src: 0, Dst: 1}}}); err != nil {
		t.Fatal(err)
	}
	sum, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sum.NumEdges != 1 {
		t.Fatalf("summary has %d edges, want 1", sum.NumEdges)
	}
	err = b.Feed(EdgeBatch{Edges: []graph.Edge{{Src: 1, Dst: 2}}})
	if !errors.Is(err, ErrFeedAfterFinish) {
		t.Fatalf("Feed after Finish: got %v, want ErrFeedAfterFinish", err)
	}
	// Finish is idempotent and the late Feed must not have leaked in.
	if again, err := b.Finish(); err != nil || again != sum || again.NumEdges != 1 {
		t.Fatalf("second Finish returned a different summary (%v)", err)
	}
}

func TestShardedFeedAfterFinish(t *testing.T) {
	sb, err := NewShardedStreamBuilder(Random{}, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Feed(EdgeBatch{Edges: []graph.Edge{{Src: 0, Dst: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Finish(); err != nil {
		t.Fatal(err)
	}
	err = sb.Feed(EdgeBatch{Edges: []graph.Edge{{Src: 1, Dst: 2}}})
	if !errors.Is(err, ErrFeedAfterFinish) {
		t.Fatalf("sharded Feed after Finish: got %v, want ErrFeedAfterFinish", err)
	}
	sum, err := sb.Finish()
	if err != nil || sum.NumEdges != 1 {
		t.Fatalf("second Finish: %v, %d edges (want 1)", err, sum.NumEdges)
	}
}

func TestShardedRejectsNonStateless(t *testing.T) {
	_, err := NewShardedStreamBuilder(MustNew("HDRF", Options{}), 4, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "StreamingStrategy") {
		t.Fatalf("HDRF: got %v, want error naming StreamingStrategy", err)
	}
	hybrid := MustNew("Hybrid", Options{HybridThreshold: 30})
	_, _, why := hybrid.(MultiPassStrategy).MultiPass()
	_, err = NewShardedStreamBuilder(hybrid, 4, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "MultiPassStrategy") || !strings.Contains(err.Error(), why) {
		t.Fatalf("Hybrid: got %v, want error naming MultiPassStrategy and its reason %q", err, why)
	}
	if _, err := NewShardedStreamBuilder(noCapStrategy{}, 4, 2, 1); !errors.Is(err, ErrNoIngressCapability) {
		t.Fatalf("capability-less strategy: got %v, want ErrNoIngressCapability", err)
	}
	if _, err := NewShardedStreamBuilder(MustNew("Grid", Options{}), 9, 2, 1); err != nil {
		t.Fatalf("stateless strategy rejected: %v", err)
	}
}
