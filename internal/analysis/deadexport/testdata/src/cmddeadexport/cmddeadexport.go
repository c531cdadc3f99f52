// Package cmddeadexport lies outside internal/, where an export can serve
// importers beyond the module, so nothing here is reported.
package cmddeadexport

func Orphan() int { return 1 }
