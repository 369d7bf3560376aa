// Package directory stands in for a module package with context-first
// calls in the nowait fixture: Lookup waits for a reply, bounded by its
// context, and no list names it.
package directory

import "context"

// Client looks names up.
type Client struct{}

// Lookup waits for the directory's answer.
func (c *Client) Lookup(ctx context.Context, name string) (string, error) { return "", nil }

// Cached answers from the client's cache; it never waits.
func (c *Client) Cached(name string) (string, bool) { return "", false }
