package transport

// Reliable stands in for the real layer in the nowait fixture: a sink
// handed to NewReliable runs on its receive goroutine, and AwaitWindow
// waits for acknowledgements that goroutine reads.
type Reliable struct{}

// NewReliable returns a layer delivering to sink.
func NewReliable(pc, cfg any, sink func([]byte)) *Reliable { return &Reliable{} }

// AwaitWindow waits for window space.
func (r *Reliable) AwaitWindow() error { return nil }

// Send never waits.
func (r *Reliable) Send([]byte) error { return nil }

// SendWait waits for window space, then sends.
func (r *Reliable) SendWait([]byte) error { return nil }
