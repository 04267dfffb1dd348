package api

func probe() string { return "/v1/vms" }
