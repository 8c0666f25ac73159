// Package drv plays a background driver one package below the facade:
// stopping it waits for its goroutine to exit.
package drv

// Driver runs until told to stop.
type Driver struct{ done chan struct{} }

// Stop parks until the driver goroutine is gone. Nothing with a mutator
// attached calls it, so the bare receive is fine where it stands.
func (d *Driver) Stop() { <-d.done }
