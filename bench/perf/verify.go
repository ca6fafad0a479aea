package main

import "fmt"

// equivalenceRounds is how many rounds the path-equivalence check replays.
const equivalenceRounds = 32

// checkPathEquivalence replays the first rounds of w over its wire and
// into an identically seeded in-process twin: the same messages through
// codec, transport and tenant layers must leave bit-identical model
// parameters behind. It returns the calls it made and what went wrong.
func checkPathEquivalence(w *workload, in *inputs) (attempted int, problems []string) {
	models := map[string][]float64{}
	for _, transport := range []string{w.transport, "none"} {
		d, err := w.deploy(transport, nil)
		if err != nil {
			return attempted + 1, append(problems, fmt.Sprintf("%s: path equivalence: deploy over %s: %v", w.name, transport, err))
		}
		c := &client{d: d, in: in}
		for c.rounds < equivalenceRounds {
			if _, _, err := c.round(); err != nil {
				problems = append(problems, fmt.Sprintf("%s: path equivalence over %s: %v", w.name, transport, err))
				break
			}
		}
		req := in.task
		full, err := d.svc.RequestTask(d.ctx, &req)
		attempted += c.attempted + 1
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: path equivalence over %s: final pull: %v", w.name, transport, err))
		} else {
			models[transport] = append([]float64(nil), full.Params...)
		}
		d.shutdown()
	}
	if len(problems) == 0 && !equalBits(models[w.transport], models["none"]) {
		problems = append(problems, fmt.Sprintf("%s: model after %d rounds over %s differs from the in-process twin's",
			w.name, equivalenceRounds, w.transport))
	}
	return attempted, problems
}
