package main

import "fixture/internal/cluster"

func describe(k cluster.EventKind) string {
	switch k {
	case cluster.NodeDown:
		return "down"
	}
	return ""
}

func main() { println(describe(cluster.NodeDown)) }
