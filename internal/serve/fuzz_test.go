package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseJobSpec feeds arbitrary bytes to the daemon's submission
// decoder. No input may panic, and an accepted spec must be a fixed
// point: re-marshalling it and parsing the result again yields the same
// spec and the same job ID.
func FuzzParseJobSpec(f *testing.F) {
	for _, seed := range []string{
		quickSpec(1),
		`{ "config":{"skip_static":true,"skip_passive":true,"seed":31,"limit_km":6,"skip_apps":true}, "kind":"campaign" }`,
		`{"kind":"campaign","csv":true,"config":{"seed":41,"limit_km":6,"skip_apps":true,"skip_static":true,"skip_passive":true}}`,
		`{"kind":"fleet","scenario":` + fleetScenarioJSON + `}`,
		`{"kind":"collect","scenario":` + fleetScenarioJSON + `}`,
		`{"kind":"collect","fingerprint":"abc","scenario":` + fleetScenarioJSON + `}`,
		`{"kind":"sabotage"}`,
		`{}`,
		`{"kind":"campaign","config":{"seed":1},"sudo":true}`,
		`{"kind":"campaign","config":{"seed":1,"load_model":"psychic"}}`,
		`{"kind":"fleet","scenario":{"master_seed":1,"base":{"seed":0},"sweep":[{"field":"nope","values":[1]}]}}`,
		`{"kind":"fleet","scenario":{"master_seed":1,"archive_dir":"/tmp/x","base":{"seed":0}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, id, err := ParseJobSpec(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		canonical, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, againID, err := ParseJobSpec(strings.NewReader(string(canonical)))
		if err != nil {
			t.Fatalf("re-marshalled spec rejected: %v\ninput: %q\nre-marshalled: %s", err, data, canonical)
		}
		if againID != id {
			t.Errorf("job ID changed on round trip: %s -> %s\ninput: %q\nre-marshalled: %s", id, againID, data, canonical)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Errorf("spec changed on round trip:\nfirst:  %+v\nsecond: %+v\ninput: %q", spec, again, data)
		}
	})
}
