// Package gossip stands in for the real gossip package in the nowait
// fixture: a rumour handler runs on the goroutine that delivers the
// rumour, and Broadcast waits for each peer's window.
package gossip

// Engine spreads rumours.
type Engine struct{}

// RumorHandler consumes one rumour.
type RumorHandler func(origin string, body any)

// OnRumor registers the topic's handler.
func (e *Engine) OnRumor(topic string, f RumorHandler) {}

// Broadcast originates a rumour, waiting for each peer's window.
func (e *Engine) Broadcast(topic string, body any) error { return nil }
