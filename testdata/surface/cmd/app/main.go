// Command app is the fixture's production client of lib.
package main

import (
	"encoding/json"
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	var v any = lib.Logger{}
	if l, ok := v.(interface{ Log() string }); ok {
		fmt.Println(l.Log())
	}
	var cfg lib.Config
	_ = json.Unmarshal([]byte(`{"name": "x"}`), &cfg)
	var st lib.Stats
	st.Hits.Add(1)
	fmt.Println(s.Area(), cfg, lib.Pair{1, 2}.Sum(), st.Hits.Load(), lib.Used())
}
