package faults

import "net/http"

// Middleware wraps an HTTP handler with injected REST-plane faults: a 5xx
// response, drawn from the injector's "http" stream, in place of the
// handler's. It is how tests (and live chaos drills) make a controller
// endpoint flaky without touching the controller itself.
func Middleware(in *Injector, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.HTTPFault() {
			http.Error(w, "faults: injected server error", http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})
}
