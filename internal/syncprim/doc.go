// Package syncprim implements the paper's synchronization constructs
// (§4.3): barriers, single-assignment variables, bounded channels and
// semaphores for threads within a dapplet, and their extensions "to allow
// synchronizations between threads in different dapplets in different
// address spaces" — a distributed barrier service, a token-backed
// distributed semaphore, and a distributed single-assignment register.
//
// The local constructs are plain in-process synchronization for the
// threads of one dapplet. The distributed ones compose the paper's other
// services rather than inventing new protocols: the distributed
// semaphore is a thin wrapper over the token service (a P is a token
// request, a V a release), and the barrier and register services are
// svc handler tables on a coordinator dapplet. An arrival or an early
// read is a request whose reply the service defers until the last
// party arrives or the variable is set, mirroring how §4.3 builds
// inter-dapplet synchronization out of the messaging layer. Their
// blocking calls are context-first.
package syncprim
