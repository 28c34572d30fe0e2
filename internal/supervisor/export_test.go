package supervisor

// MaxRestarts exposes the restart-storm cap to the external tests.
const MaxRestarts = maxRestarts
