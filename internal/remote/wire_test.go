package remote

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func serializableJob(t *testing.T) runner.Job {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 1000
	// A non-zero measure offset (an exact shard job) must round-trip;
	// dropping it would measure the wrong interval (the wire v2→v3 bump).
	cfg.MeasureOffsetInstrs = 500
	cfg.MeasureInstrs = 1000
	return runner.Job{
		Label:    "fig10/OLTP DB2/nextline",
		Workload: workload.OLTPDB2(),
		Config:   cfg,
		Engine:   prefetch.Spec{Name: "nextline"},
	}
}

func TestEncodeJobRoundTrip(t *testing.T) {
	j := serializableJob(t)
	j.Source = sim.SliceSource("/tmp/store", trace.Window{Off: 10, Len: 20})
	spec, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Job()
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != j.Label || got.Workload != j.Workload || got.Config != j.Config || got.Engine.Name != j.Engine.Name {
		t.Errorf("round trip changed job:\n%+v\n%+v", j, got)
	}
	ss, ok := sim.SpecOf(got.Source)
	if !ok || ss.Kind != "slice" || ss.Path != "/tmp/store" || (ss.Window != trace.Window{Off: 10, Len: 20}) {
		t.Errorf("source not round-tripped: %+v ok=%v", ss, ok)
	}
}

// TestEncodeJobTunedEngine locks the wire-v2 capability: a tuned engine
// spec — params and all — travels and rebuilds intact, where wire v1
// refused anything beyond a bare registry name.
func TestEncodeJobTunedEngine(t *testing.T) {
	j := serializableJob(t)
	j.Engine = prefetch.Spec{Name: "pif", Params: map[string]float64{
		"budget_kb": 512,
		"sabs":      2,
	}}
	spec, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Job()
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine.Name != "pif" || got.Engine.Params["budget_kb"] != 512 || got.Engine.Params["sabs"] != 2 {
		t.Errorf("tuned engine did not round-trip: %+v", got.Engine)
	}
	// The rebuilt spec resolves to a working engine instance.
	if _, err := prefetch.Resolve(got.Engine); err != nil {
		t.Errorf("rebuilt engine spec does not resolve: %v", err)
	}
}

// nopObserver is a process-local observer for rejection tests.
type nopObserver struct{}

func (nopObserver) OnCorrectFetch(tl isa.TrapLevel, hit, wasPrefetched bool) {}

func TestEncodeJobRejectsProcessLocalState(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*runner.Job)
		want string
	}{
		{"no-engine", func(j *runner.Job) { j.Engine = prefetch.Spec{} }, "names no engine"},
		{"unknown-engine", func(j *runner.Job) { j.Engine = prefetch.Spec{Name: "dropout"} }, "unknown engine"},
		{"invalid-engine-param", func(j *runner.Job) {
			j.Engine = prefetch.Spec{Name: "nextline", Params: map[string]float64{"degree": 0}}
		}, "below minimum"},
		{"unknown-engine-param", func(j *runner.Job) {
			j.Engine = prefetch.Spec{Name: "nextline", Params: map[string]float64{"stride": 2}}
		}, "unknown param"},
		{"instrument", func(j *runner.Job) {
			j.Instrument = func(prefetch.Prefetcher) {}
		}, "instrument callback"},
		{"observer", func(j *runner.Job) { j.Observer = nopObserver{} }, "observer"},
		{"unnamed-workload", func(j *runner.Job) { j.Workload = workload.Profile{} }, "unnamed workload"},
		{"off-registry-workload", func(j *runner.Job) { j.Workload.Seed++ }, "differs from the registry"},
		{"opaque-source", func(j *runner.Job) {
			j.Source = sim.OpenerSource(func() (trace.Iterator, error) { return nil, nil })
		}, "opaque source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := serializableJob(t)
			tc.mut(&j)
			_, err := EncodeJob(j)
			if err == nil {
				t.Fatal("EncodeJob accepted a non-serializable job")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestJobSpecRejectsForgedEngine asserts the worker-side decode
// validates engine specs too: a spec corrupted or forged in transit
// fails at Job(), before any simulation starts.
func TestJobSpecRejectsForgedEngine(t *testing.T) {
	mk := func() JobSpec {
		spec, err := EncodeJob(serializableJob(t))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	s := mk()
	s.Engine.Name = ""
	if _, err := s.Job(); err == nil || !strings.Contains(err.Error(), "names no engine") {
		t.Errorf("engineless spec: %v", err)
	}
	s = mk()
	s.Engine.Params = map[string]float64{"degree": -3}
	if _, err := s.Job(); err == nil || !strings.Contains(err.Error(), "below minimum") {
		t.Errorf("out-of-range spec: %v", err)
	}
}

func TestEncodeResultRoundTrip(t *testing.T) {
	r := runner.Result{
		Index:   7,
		Label:   "cell",
		Sim:     sim.Result{Workload: "OLTP DB2", Instructions: 123, UIPC: 0.5},
		Err:     errors.New("boom"),
		Elapsed: 1500 * time.Millisecond,
	}
	wr := EncodeResult(r)
	b, err := json.Marshal(wr)
	if err != nil {
		t.Fatal(err)
	}
	var back WireResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != r.Index || got.Label != r.Label || got.Sim != r.Sim || got.Elapsed != r.Elapsed {
		t.Errorf("round trip changed result:\n%+v\n%+v", r, got)
	}
	if got.Err == nil || got.Err.Error() != "boom" {
		t.Errorf("error not round-tripped: %v", got.Err)
	}
}

func TestWireVersionEnforced(t *testing.T) {
	if _, err := (JobSpec{V: WireVersion + 1, Workload: "OLTP DB2", Engine: prefetch.Spec{Name: "none"}}).Job(); err == nil {
		t.Error("future-version job spec accepted")
	}
	// A v1 peer (bare-name engine wire) must be refused, not
	// misinterpreted.
	if _, err := (JobSpec{V: 1, Workload: "OLTP DB2", Engine: prefetch.Spec{Name: "none"}}).Job(); err == nil {
		t.Error("v1 job spec accepted")
	}
	// A v2 peer predates Config.MeasureOffsetInstrs: it would silently
	// drop the offset of an exact shard job and measure the wrong
	// interval, so it too must be refused.
	if _, err := (JobSpec{V: 2, Workload: "OLTP DB2", Engine: prefetch.Spec{Name: "none"}}).Job(); err == nil {
		t.Error("v2 job spec accepted")
	}
	// A v3 peer predates lanes: it would drop a job's lanes and report
	// their cells as never run.
	if _, err := (JobSpec{V: 3, Workload: "OLTP DB2", Engine: prefetch.Spec{Name: "none"}}).Job(); err == nil {
		t.Error("v3 job spec accepted")
	}
	if _, err := (WireResult{V: 3}).Result(); err == nil {
		t.Error("v3 result accepted")
	}
	if _, err := (WireResult{V: 0}).Result(); err == nil {
		t.Error("unversioned result accepted")
	}
}

// laneJob is a job with two lanes varying engine and back-half config.
func laneJob() runner.Job {
	cfg := sim.DefaultConfig()
	perfect := cfg
	perfect.PerfectL1 = true
	return runner.Job{
		Label:    "cell/pif",
		Workload: workload.OLTPDB2(),
		Config:   cfg,
		Engine:   prefetch.Spec{Name: "pif", Params: map[string]float64{"history": 4096}},
		Lanes: []runner.Lane{
			{Label: "cell/tifs", Config: cfg, Engine: prefetch.Spec{Name: "tifs"}},
			{Label: "cell/perfect", Config: perfect, Engine: prefetch.Spec{Name: "none"}},
		},
	}
}

// TestEncodeJobLanes: lanes travel with their labels, configs and engine
// specs, and their results come back labeled, in lane order.
func TestEncodeJobLanes(t *testing.T) {
	j := laneJob()
	spec, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Job()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Lanes) != len(j.Lanes) {
		t.Fatalf("decoded %d lanes, want %d", len(got.Lanes), len(j.Lanes))
	}
	for i, l := range got.Lanes {
		w := j.Lanes[i]
		if l.Label != w.Label || l.Config != w.Config || l.Engine.String() != w.Engine.String() {
			t.Errorf("lane %d = %+v, want %+v", i, l, w)
		}
	}
	res := runner.Result{Index: 3, Label: j.Label, Sim: sim.Result{Instructions: 1},
		Lanes: []runner.LaneResult{{Label: "cell/tifs", Sim: sim.Result{Instructions: 2}}, {Label: "cell/perfect", Sim: sim.Result{Instructions: 3}}}}
	rb, _ := json.Marshal(EncodeResult(res))
	var wr WireResult
	if err := json.Unmarshal(rb, &wr); err != nil {
		t.Fatal(err)
	}
	r, err := wr.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lanes) != 2 || r.Lanes[0] != res.Lanes[0] || r.Lanes[1] != res.Lanes[1] {
		t.Errorf("lane results round-tripped as %+v, want %+v", r.Lanes, res.Lanes)
	}
}

// TestLanesValidated: each lane is checked on encode (engine spec,
// process-local callbacks) and on decode (engine spec), with the lane's
// label in the message.
func TestLanesValidated(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(l *runner.Lane)
		want string
	}{
		{"no engine", func(l *runner.Lane) { l.Engine = prefetch.Spec{} }, "names no engine"},
		{"bad param", func(l *runner.Lane) { l.Engine = prefetch.Spec{Name: "tifs", Params: map[string]float64{"bogus": 1}} }, "bogus"},
		{"instrument", func(l *runner.Lane) { l.Instrument = func(prefetch.Prefetcher) {} }, "instrument"},
		{"observer", func(l *runner.Lane) { l.Observer = nopObserver{} }, "observer"},
	} {
		j := laneJob()
		tc.edit(&j.Lanes[1])
		_, err := EncodeJob(j)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "cell/perfect") {
			t.Errorf("%s: EncodeJob err = %v, want %q naming the lane", tc.name, err, tc.want)
		}
	}
	spec, err := EncodeJob(laneJob())
	if err != nil {
		t.Fatal(err)
	}
	spec.Lanes[0].Engine = prefetch.Spec{Name: "pif", Params: map[string]float64{"history": -5}}
	if _, err := spec.Job(); err == nil || !strings.Contains(err.Error(), "cell/tifs") {
		t.Errorf("forged lane engine decoded: err = %v", err)
	}
}

// FuzzJobSpecRoundTrip fuzzes the wire decode path: any JSON the
// coordinator or a worker receives either fails decode/validation or
// survives a marshal/unmarshal round trip unchanged — the same
// guarantee FuzzArtifactRoundTrip gives the results store. Engine param
// payloads are part of the fuzzed surface.
func FuzzJobSpecRoundTrip(f *testing.F) {
	seed, err := EncodeJob(runner.Job{
		Label:    "seed",
		Workload: workload.OLTPDB2(),
		Config:   sim.DefaultConfig(),
		Engine:   prefetch.Spec{Name: "pif"},
	})
	if err != nil {
		f.Fatal(err)
	}
	b, _ := json.Marshal(seed)
	f.Add(string(b))
	tuned, err := EncodeJob(runner.Job{
		Label:    "tuned",
		Workload: workload.WebApache(),
		Config:   sim.DefaultConfig(),
		Engine:   prefetch.Spec{Name: "tifs", Params: map[string]float64{"budget_kb": 64}},
	})
	if err != nil {
		f.Fatal(err)
	}
	tb, _ := json.Marshal(tuned)
	f.Add(string(tb))
	lanes, err := EncodeJob(laneJob())
	if err != nil {
		f.Fatal(err)
	}
	lb, _ := json.Marshal(lanes)
	f.Add(string(lb))
	f.Add(`{"v":4,"workload":"OLTP DB2","engine":{"name":"none"},"lanes":[{"label":"l","engine":{"name":"tifs"}},{"engine":{"name":"pif","params":{"budget_kb":32}}}]}`)
	f.Add(`{"v":4,"workload":"OLTP DB2","engine":{"name":"none"},"lanes":[{"engine":{"name":""}}]}`)
	f.Add(`{"v":3,"workload":"OLTP DB2","engine":{"name":"none"},"lanes":[{"engine":{"name":"tifs"}}]}`)
	f.Add(`{"v":3,"workload":"OLTP DB2","engine":{"name":"none"},"source":{"kind":"slice","path":"/x","window":{"Off":1,"Len":2}}}`)
	f.Add(`{"v":3,"workload":"OLTP DB2","engine":{"name":"pif","params":{"history":2048,"index":512}}}`)
	f.Add(`{"v":3,"workload":"OLTP DB2","engine":{"name":"pif","params":{"history":1e309}}}`)
	f.Add(`{"v":3,"workload":"OLTP DB2","engine":{"name":"none"},"config":{"WarmupInstrs":10,"MeasureOffsetInstrs":5,"MeasureInstrs":10}}`)
	f.Add(`{"v":2,"workload":"OLTP DB2","engine":{"name":"none"}}`)
	f.Add(`{"v":1,"workload":"OLTP DB2","prefetcher":"none"}`)
	f.Add(`{"v":99}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, in string) {
		var spec JobSpec
		if err := json.Unmarshal([]byte(in), &spec); err != nil {
			return
		}
		job, err := spec.Job()
		if err != nil {
			return
		}
		// A decodable job must re-encode to an equivalent spec.
		spec2, err := EncodeJob(job)
		if err != nil {
			t.Fatalf("decoded job does not re-encode: %v", err)
		}
		b1, _ := json.Marshal(spec2)
		job2, err := spec2.Job()
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		spec3, err := EncodeJob(job2)
		if err != nil {
			t.Fatal(err)
		}
		b2, _ := json.Marshal(spec3)
		if string(b1) != string(b2) {
			t.Fatalf("round trip not stable:\n%s\n%s", b1, b2)
		}
	})
}
