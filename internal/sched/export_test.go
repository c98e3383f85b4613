package sched

// CrossesFullOutage exposes the drain predicate to the external test
// package's sort-based oracle.
var CrossesFullOutage = crossesFullOutage
