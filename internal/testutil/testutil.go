// Package testutil holds small cross-package test support helpers.
//
// The noalloc gate tests (one per package carrying //lint:noalloc
// annotations) use RaceEnabled to skip allocation counting under the race
// detector, whose instrumentation allocates on paths the contract covers.
package testutil

//lint:file-ignore deadexport test-support package: whatever this file exports exists for tests
