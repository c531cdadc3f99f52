package ml

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Model persistence. LiBRA's deployment story (§7) is offline training by
// the vendor followed by shipping the fitted model in firmware; this file
// provides the serialization for that hand-off: a fitted random forest
// round-trips through a versioned JSON container.

// forestFormatVersion guards the serialization schema.
const forestFormatVersion = 1

// nodeJSON is one stored node; children reference indices (-1 for none).
type nodeJSON struct {
	Leaf      bool    `json:"leaf"`
	Class     int     `json:"class,omitempty"`
	Feature   int     `json:"feature,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Left      int     `json:"left"`
	Right     int     `json:"right"`
}

// treeJSON is one serialized tree.
type treeJSON struct {
	Nodes []nodeJSON `json:"nodes"`
}

// forestJSON is the on-disk container.
type forestJSON struct {
	Version    int        `json:"version"`
	NumClasses int        `json:"num_classes"`
	Importance []float64  `json:"importance"`
	Trees      []treeJSON `json:"trees"`
}

// WriteJSON serializes a fitted forest.
func (f *RandomForest) WriteJSON(w io.Writer) error {
	if len(f.trees) == 0 {
		return ErrNotFitted
	}
	fj := forestJSON{
		Version:    forestFormatVersion,
		NumClasses: f.numClasses,
		Importance: f.importance,
		Trees:      make([]treeJSON, len(f.trees)),
	}
	for i, t := range f.trees {
		fj.Trees[i] = treeJSON{Nodes: t.nodes.toJSON()}
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(fj); err != nil {
		return fmt.Errorf("ml: encoding forest: %w", err)
	}
	return bw.Flush()
}

// toJSON returns the stored form of the tree's nodes, node for node.
func (t flatTree) toJSON() []nodeJSON {
	nodes := make([]nodeJSON, len(t))
	for i, n := range t {
		if n.feature < 0 {
			nodes[i] = nodeJSON{Leaf: true, Class: int(n.class), Left: -1, Right: -1}
		} else {
			nodes[i] = nodeJSON{Feature: int(n.feature), Threshold: n.threshold, Left: int(n.left), Right: int(n.right)}
		}
	}
	return nodes
}

// maxForestClasses is the widest label space a loaded forest may vote over:
// BA, RA and NA.
const maxForestClasses = 3

// ReadForestJSON deserializes a forest written by WriteJSON for feature
// vectors of the given width. The result predicts identically to the
// original; it cannot be re-fitted with the original hyperparameters (they
// are not stored). A model file crosses a trust boundary, so the loader
// fails closed: it accepts 2 or 3 classes, and a tree only when its nodes
// form a tree that predict can walk (see loadTree).
func ReadForestJSON(r io.Reader, width int) (*RandomForest, error) {
	var fj forestJSON
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&fj); err != nil {
		return nil, fmt.Errorf("ml: decoding forest: %w", err)
	}
	if fj.Version != forestFormatVersion {
		return nil, fmt.Errorf("ml: unsupported forest version %d", fj.Version)
	}
	if fj.NumClasses < 2 || fj.NumClasses > maxForestClasses {
		return nil, fmt.Errorf("ml: forest with %d classes, want 2 to %d", fj.NumClasses, maxForestClasses)
	}
	if len(fj.Trees) == 0 {
		return nil, fmt.Errorf("ml: forest has no trees")
	}
	f := &RandomForest{numClasses: fj.NumClasses, importance: fj.Importance}
	f.trees = make([]*DecisionTree, len(fj.Trees))
	for i, tj := range fj.Trees {
		nodes, err := loadTree(tj.Nodes, width, fj.NumClasses)
		if err != nil {
			return nil, fmt.Errorf("ml: tree %d: %w", i, err)
		}
		f.trees[i] = &DecisionTree{nodes: nodes}
	}
	return f, nil
}

// loadTree fills a tree's node slice from the stored nodes, in stored
// order, during one iterative walk from node 0 that must visit node k at
// its k-th step: the preorder WriteJSON writes, and the order Quantize's
// backward pass relies on. The walk refuses cycles, shared children,
// out-of-range children and unreachable nodes, a split on a feature outside
// [0, width), a leaf class outside [0, numClasses), and a node deeper than
// maxTreeDepth, so predict and Quantize can walk whatever it accepts.
func loadTree(js []nodeJSON, width, numClasses int) (flatTree, error) {
	if len(js) == 0 {
		return nil, fmt.Errorf("empty tree")
	}
	type visit struct{ i, depth int }
	nodes := make(flatTree, len(js))
	stack := []visit{{0, 0}}
	next := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case v.i < next:
			return nil, fmt.Errorf("node %d is reached twice", v.i)
		case v.i > next:
			return nil, fmt.Errorf("node %d is out of preorder (want node %d)", v.i, next)
		case v.depth > maxTreeDepth:
			return nil, fmt.Errorf("node %d is deeper than %d", v.i, maxTreeDepth)
		}
		next++
		n := js[v.i]
		if n.Leaf {
			if n.Class < 0 || n.Class >= numClasses {
				return nil, fmt.Errorf("leaf %d has class %d, want 0 to %d", v.i, n.Class, numClasses-1)
			}
			nodes[v.i] = flatNode{feature: -1, class: int32(n.Class)}
			continue
		}
		if n.Feature < 0 || n.Feature >= width {
			return nil, fmt.Errorf("node %d splits on feature %d, want 0 to %d", v.i, n.Feature, width-1)
		}
		for _, c := range [2]int{n.Left, n.Right} {
			if c < 0 || c >= len(js) {
				return nil, fmt.Errorf("node %d has child %d out of range", v.i, c)
			}
		}
		nodes[v.i] = flatNode{feature: int32(n.Feature), threshold: n.Threshold, left: int32(n.Left), right: int32(n.Right)}
		stack = append(stack, visit{n.Right, v.depth + 1}, visit{n.Left, v.depth + 1})
	}
	if next < len(js) {
		return nil, fmt.Errorf("node %d is unreachable", next)
	}
	return nodes, nil
}
