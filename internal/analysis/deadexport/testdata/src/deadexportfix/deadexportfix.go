// Package deadexportfix seeds exports nothing references (want-annotated)
// alongside the references that keep an export live.
package deadexportfix

import "fmt"

func Orphan() int { return 1 } // want `exported Orphan is referenced only by tests`

type T struct{ n int }

func (t *T) Orphan() int { return t.n } // want `exported \(\*T\)\.Orphan is referenced only by tests`

// Used is referenced from its own package.
func Used() int { return 2 }

var _ = Used()

// Sizer is an interface the package mentions, so T.Size is live through it.
type Sizer interface{ Size() int }

func (t *T) Size() int { return t.n }

// The standard library finds String and Error at run time.
func (t *T) String() string { return fmt.Sprint(t.n) }
func (t *T) Error() string  { return "t" }

// An unexported function is outside the exported surface, referenced or not.
func unused() int { return 3 }
