package netsim

import "strconv"

// Addr is the global address of a communication endpoint: a host name
// (standing in for an IP address) and a port. The paper associates each
// dapplet with "an Internet address i.e. IP address and port id" (§3.1).
type Addr struct {
	Host string
	Port uint16
}

// String renders the address in the conventional "host:port" form.
func (a Addr) String() string {
	return a.Host + ":" + strconv.Itoa(int(a.Port))
}

// IsZero reports whether a is the zero address.
func (a Addr) IsZero() bool { return a.Host == "" && a.Port == 0 }
