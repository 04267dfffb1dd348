package main

import (
	"fmt"

	widgets "fixture/internal/lib"
)

func main() {
	w := widgets.NewWidget()
	w.Turn()
	fmt.Println(widgets.Used)
}
