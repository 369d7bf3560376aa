//go:build race

package svc

// spoilLent has a server spoil each correlated request once its handler
// returns (see spoil), as sync.Pool drops items at random under the race
// detector: to catch a user that keeps what was lent.
const spoilLent = true
