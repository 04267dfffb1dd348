package main

import (
	"flag"
	"fmt"

	widgets "fixture/internal/lib"
)

func main() {
	w := widgets.NewWidget()
	w.Turn()
	fmt.Println(widgets.Used)

	cfg := widgets.DialConfig{Literal: 2}
	flag.IntVar(&cfg.Addressed, "addressed", 0, "")
	flag.Parse()
	fmt.Println(widgets.Dial(cfg))
}
