package fabric

// Tap interposes observation hooks on both directions without altering
// traffic. onSend fires before the inner Send, onRecv before the inner
// handler; either may be nil.
func Tap(onSend, onRecv func(peer string, payload any, size int)) Middleware {
	return func(inner Endpoint) Endpoint {
		return &tapEndpoint{inner: inner, onSend: onSend, onRecv: onRecv}
	}
}

// Logging is a Tap that formats every message through logf, e.g.
// Logging(log.Printf) or a test logger.
func Logging(logf func(format string, args ...any)) Middleware {
	return Tap(
		func(peer string, payload any, size int) {
			logf("fabric: send to=%s size=%d payload=%T", peer, size, payload)
		},
		func(peer string, payload any, size int) {
			logf("fabric: recv from=%s size=%d payload=%T", peer, size, payload)
		},
	)
}

type tapEndpoint struct {
	inner          Endpoint
	onSend, onRecv func(peer string, payload any, size int)
}

func (e *tapEndpoint) ID() string       { return e.inner.ID() }
func (e *tapEndpoint) Unwrap() Endpoint { return e.inner }
func (e *tapEndpoint) Close() error     { return e.inner.Close() }

func (e *tapEndpoint) Send(to string, payload any, size int) error {
	if e.onSend != nil {
		e.onSend(to, payload, size)
	}
	return e.inner.Send(to, payload, size)
}

func (e *tapEndpoint) SetHandler(h Handler) {
	if h == nil {
		e.inner.SetHandler(nil)
		return
	}
	e.inner.SetHandler(func(from string, payload any, size int) {
		if e.onRecv != nil {
			e.onRecv(from, payload, size)
		}
		h(from, payload, size)
	})
}
