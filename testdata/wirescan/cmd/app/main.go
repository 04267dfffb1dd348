package main

import "fixture/internal/api"

func main() {
	_ = "http://localhost" + "/v1/vms"
	_ = "GET /v1/state"
	_ = api.Prefix
	api.Client{}.Launch()
}
