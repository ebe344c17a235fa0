package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"idde/internal/model"
)

// goldenJSON maps "<workload>/<seed>" to the exact values recorded for
// that input. Regenerate an entry with
//
//	bash idbench/run.sh --workload <name> --seed <n> --record
//
// and merge the printed object into golden.json; a change that moves one
// of these values changes what the program computes, not how fast.
//
//go:embed golden.json
var goldenJSON []byte

var goldenTable = func() map[string]exact {
	m := map[string]exact{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("idbench: golden.json: %v", err))
	}
	return m
}()

func goldenKey(workload string, seed uint64) string {
	return fmt.Sprintf("%s/%d", workload, seed)
}

func lookupGolden(workload string, seed uint64) (exact, bool) {
	g, ok := goldenTable[goldenKey(workload, seed)]
	return g, ok
}

// recordGolden runs one solve and soak and returns its exact values.
func recordGolden(w workload, seed uint64) (exact, error) {
	in, err := build(w, seed)
	if err != nil {
		return exact{}, err
	}
	o, err := runRound(w, []*model.Instance{in}, seed, 0)
	if err != nil {
		return exact{}, err
	}
	return o.ex(), nil
}
