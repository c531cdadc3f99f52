package ml

// Flat tree layout. A tree is one contiguous node slice from fit to serve:
// the builder appends each node as it grows the tree, so the slice is in
// preorder (a split, then its left subtree, then its right subtree) and
// node 0 is the root. Children are slice indices instead of pointers, so a
// root-to-leaf walk touches one cache-resident array and allocates
// nothing. Persistence writes and reads the slice node for node, and
// Quantize (quant.go) packs it further for serving. A fitted tree is
// read-only, so it is safe to share across goroutines.

// flatNode is one node of a classification tree. A leaf is marked by
// feature == -1 and carries its class in class.
type flatNode struct {
	feature   int32
	left      int32
	right     int32
	class     int32
	threshold float64
}

// flatTree is a classification tree's preorder node slice.
type flatTree []flatNode

// predict walks the tree. Callers must ensure it is non-empty.
func (t flatTree) predict(x []float64) int {
	i := int32(0)
	for {
		n := &t[i]
		if n.feature < 0 {
			return int(n.class)
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}
