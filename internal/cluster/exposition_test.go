package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gpucmp/internal/golden"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// populatedFleet starts one worker behind one coordinator, both with a
// tenant quota, and sends the traffic that fills every metric family
// either of them exposes, the conditional ones included: a /run miss and
// hit (jobs, latency histogram, breaker state), a tenant's /kernels
// submission (tenant and quota rows on both sides) and a /coexec run on
// the worker (co-execution rows).
func populatedFleet(t *testing.T) (worker, coord string) {
	t.Helper()
	quota := sched.QuotaConfig{Rate: 1000, Burst: 1000}
	s := sched.New(sched.Options{Workers: 2, Quota: quota})
	t.Cleanup(s.Close)
	w := httptest.NewServer(server.New(s).Handler())
	t.Cleanup(w.Close)
	cts, _ := startCoordinator(t, Config{Workers: []string{w.URL}, Quota: quota})

	for i := 0; i < 2; i++ {
		if status, body, _ := post(t, cts.URL+"/run", runBody("Reduce", 32)); status != http.StatusOK {
			t.Fatalf("/run: %d %s", status, body)
		}
	}
	if status, body := postKernels(t, cts.URL, "alice", kernelsBody(t, 1)); status != http.StatusOK {
		t.Fatalf("/kernels: %d %s", status, body)
	}
	coexec := `{"workload":"vecadd","size":16,"devices":["GeForce GTX480","Intel Core i7 920"]}`
	if status, body, _ := post(t, w.URL+"/coexec", coexec); status != http.StatusOK {
		t.Fatalf("/coexec: %d %s", status, body)
	}
	return w.URL, cts.URL
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// masked replaces every sample value with "*" and the worker's address
// with "WORKER", leaving names, help text, types, labels and order.
func masked(text, worker string) string {
	text = strings.ReplaceAll(text, worker, "WORKER")
	lines := strings.SplitAfter(text, "\n")
	for i, l := range lines {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		lines[i] = l[:strings.LastIndexByte(l, ' ')] + " *\n"
	}
	return strings.Join(lines, "")
}

// jsonKeys lists the key paths of a JSON document, one per line, sorted;
// array elements contribute "[]".
func jsonKeys(t *testing.T, doc string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				p := path + "." + k
				set[p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		}
	}
	walk("", v)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}

// TestMetricsGolden pins the Prometheus exposition of a populated worker
// and coordinator (names, help, types, labels and order; values masked)
// and the key sets of their ?format=json documents.
func TestMetricsGolden(t *testing.T) {
	worker, coord := populatedFleet(t)
	golden.Check(t, "testdata/worker_metrics.golden", []byte(masked(scrape(t, worker+"/metrics"), worker)))
	golden.Check(t, "testdata/coordinator_metrics.golden", []byte(masked(scrape(t, coord+"/metrics"), worker)))
	golden.Check(t, "testdata/worker_metrics_keys.golden", []byte(jsonKeys(t, scrape(t, worker+"/metrics?format=json"))))
	golden.Check(t, "testdata/coordinator_metrics_keys.golden", []byte(jsonKeys(t, scrape(t, coord+"/metrics?format=json"))))
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelsRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*$`)
	leRe     = regexp.MustCompile(`(^|,)le="([^"]*)"`)
)

// checkExposition checks that text is well-formed Prometheus exposition:
// one # HELP then one # TYPE per family, before its samples; sample names
// that are the family name (or its _bucket, _sum and _count for a
// histogram); quoted label values; and histogram buckets that are
// cumulative and end in le="+Inf" equal to _count.
func checkExposition(t *testing.T, what, text string) {
	t.Helper()
	seen := map[string]bool{}
	var family, typ string
	var helped bool
	type series struct {
		les    []float64
		counts []float64
		count  float64
		hasCnt bool
	}
	hists := map[string]*series{}
	var order []string
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		n++
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if seen[name] {
				t.Errorf("%s:%d: second # HELP for %s", what, n, name)
			}
			seen[name] = true
			family, typ, helped = name, "", true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, ty, _ := strings.Cut(rest, " ")
			if name != family || !helped || typ != "" {
				t.Errorf("%s:%d: # TYPE %s not right after its # HELP", what, n, name)
			}
			switch ty {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("%s:%d: type %q", what, n, ty)
			}
			typ = ty
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("%s:%d: malformed line %q", what, n, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		if typ == "" {
			t.Errorf("%s:%d: sample %s before any # HELP/# TYPE", what, n, name)
			continue
		}
		if labels != "" && !labelsRe.MatchString(labels) {
			t.Errorf("%s:%d: labels not all quoted: {%s}", what, n, labels)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Errorf("%s:%d: value %q: %v", what, n, value, err)
		}
		suffix, ok := strings.CutPrefix(name, family)
		if !ok || (suffix != "" && (typ != "histogram" || (suffix != "_bucket" && suffix != "_sum" && suffix != "_count"))) ||
			(suffix == "" && typ == "histogram") {
			t.Errorf("%s:%d: sample %s in %s family %s", what, n, name, typ, family)
			continue
		}
		if typ != "histogram" {
			continue
		}
		key := family + "{" + leRe.ReplaceAllString(labels, "") + "}"
		s := hists[key]
		if s == nil {
			s = &series{}
			hists[key] = s
			order = append(order, key)
		}
		switch suffix {
		case "_bucket":
			lm := leRe.FindStringSubmatch(labels)
			if lm == nil {
				t.Errorf("%s:%d: bucket without le", what, n)
				continue
			}
			le, err := strconv.ParseFloat(lm[2], 64)
			if err != nil {
				t.Errorf("%s:%d: le %q: %v", what, n, lm[2], err)
			}
			s.les = append(s.les, le)
			s.counts = append(s.counts, v)
		case "_count":
			s.count, s.hasCnt = v, true
		}
	}
	if len(order) == 0 {
		t.Errorf("%s: no histogram samples", what)
	}
	for _, key := range order {
		s := hists[key]
		last := len(s.les) - 1
		if last < 0 || !s.hasCnt {
			t.Errorf("%s: %s has %d buckets, _count present %v", what, key, len(s.les), s.hasCnt)
			continue
		}
		for i := 1; i <= last; i++ {
			if s.les[i] <= s.les[i-1] || s.counts[i] < s.counts[i-1] {
				t.Errorf("%s: %s bucket %d (le %g, %g) after (le %g, %g)", what, key, i, s.les[i], s.counts[i], s.les[i-1], s.counts[i-1])
			}
		}
		if !math.IsInf(s.les[last], 1) || s.counts[last] != s.count {
			t.Errorf("%s: %s ends at le %g with %g, _count %g", what, key, s.les[last], s.counts[last], s.count)
		}
	}
}

// TestMetricsWellFormed checks the exposition of a populated worker and
// coordinator against the Prometheus text format.
func TestMetricsWellFormed(t *testing.T) {
	worker, coord := populatedFleet(t)
	checkExposition(t, "worker", scrape(t, worker+"/metrics"))
	checkExposition(t, "coordinator", scrape(t, coord+"/metrics"))
}

// TestQueueDepthCountsRequests: the queue-depth histogram is bucketed in
// requests. Sequential requests each find nothing else in flight, so an
// idle coordinator reports p50 and p99 of 0, and a depth of 3 lands in the
// le="4" bucket.
func TestQueueDepthCountsRequests(t *testing.T) {
	w, _ := startWorker(t, nil)
	cts, c := startCoordinator(t, Config{Workers: []string{w.URL}})
	for i := 0; i < 3; i++ {
		if status, body, _ := post(t, cts.URL+"/run", runBody("Reduce", 32)); status != http.StatusOK {
			t.Fatalf("/run: %d %s", status, body)
		}
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(scrape(t, cts.URL+"/metrics?format=json")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.QueueDepthCount != 3 || snap.QueueDepthP50 != 0 || snap.QueueDepthP99 != 0 {
		t.Errorf("idle coordinator: queue depth count %d, p50 %g, p99 %g; want 3, 0, 0",
			snap.QueueDepthCount, snap.QueueDepthP50, snap.QueueDepthP99)
	}

	c.metrics.observeDepth(3) // what admission records with three requests in flight
	prom := scrape(t, cts.URL+"/metrics")
	for _, want := range []string{
		`gpucmpd_coord_queue_depth_bucket{le="0"} 3`,
		`gpucmpd_coord_queue_depth_bucket{le="2"} 3`,
		`gpucmpd_coord_queue_depth_bucket{le="4"} 4`,
		`gpucmpd_coord_queue_depth_sum 3`,
	} {
		if !strings.Contains(prom, want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, prom)
		}
	}
}
