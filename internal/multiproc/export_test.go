package multiproc

// CrashRules lets the conformance suite (package multiproc_test) run the
// bench's crash plan.
var CrashRules = crashRules
