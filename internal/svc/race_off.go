//go:build !race

package svc

// spoilLent is off outside race builds: spoiling costs an allocation and
// a decode per request (see spoil).
const spoilLent = false
