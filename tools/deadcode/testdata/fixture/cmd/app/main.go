package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	var r a.Runner = a.T{}
	r.Run()
	fmt.Println(a.Used(), r)
}
