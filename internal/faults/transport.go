package faults

import (
	"net/http"
	"time"
)

// Middleware wraps an HTTP handler with injected REST-plane faults: 5xx
// responses, dropped connections, and delays, drawn from the injector's
// "http" stream. It is how tests (and live chaos drills) make a controller
// endpoint flaky without touching the controller itself.
//
// Dropped connections abort via http.ErrAbortHandler, which the net/http
// server turns into a severed connection — the client sees an EOF / reset,
// exactly the ambiguous "did my request apply?" failure idempotency keys
// exist for.
func Middleware(in *Injector, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch f := in.HTTPFault(); f.Kind {
		case HTTPError:
			http.Error(w, "faults: injected server error", http.StatusInternalServerError)
			return
		case HTTPDrop:
			panic(http.ErrAbortHandler)
		case HTTPDelay:
			time.Sleep(f.Delay)
		}
		next.ServeHTTP(w, r)
	})
}
