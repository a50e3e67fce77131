package metrics

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Number is the type of a sample's value. Values print as fmt's %v does:
// integers as integers, floats in the shortest %g form.
type Number interface {
	int | int64 | uint64 | float64
}

// Family is one metric family: a name, help text, a type and its samples,
// in the order they are written.
type Family struct {
	name, help, typ string
	samples         []Sample
	omitEmpty       bool
}

// Sample is one labelled value of a family, or one labelled histogram.
type Sample struct {
	labels []string // name="value", in order
	value  any
	hist   *Histogram
}

// Counter declares a counter family.
func Counter(name, help string, samples ...Sample) Family {
	return Family{name: name, help: help, typ: "counter", samples: samples}
}

// Gauge declares a gauge family.
func Gauge(name, help string, samples ...Sample) Family {
	return Family{name: name, help: help, typ: "gauge", samples: samples}
}

// Histograms declares a histogram family; its samples come from Hist.
func Histograms(name, help string, samples ...Sample) Family {
	return Family{name: name, help: help, typ: "histogram", samples: samples}
}

// OmitEmpty returns f marked to be left out, # HELP and # TYPE included,
// when it has no samples. A family not so marked is always written.
func (f Family) OmitEmpty() Family {
	f.omitEmpty = true
	return f
}

// Value is one sample: v under the given label name/value pairs.
func Value[T Number](v T, labels ...string) Sample {
	return Sample{labels: quoted(labels), value: v}
}

// Hist is one histogram under the given label name/value pairs. h is read
// when the family is written, so it should be a copy the caller owns.
func Hist(h *Histogram, labels ...string) Sample {
	return Sample{labels: quoted(labels), hist: h}
}

// Rows makes one sample per row, labelled label=key where f returns the
// row's key and value.
func Rows[R any, T Number](rows []R, label string, f func(R) (string, T)) []Sample {
	out := make([]Sample, len(rows))
	for i, r := range rows {
		key, v := f(r)
		out[i] = Value(v, label, key)
	}
	return out
}

func quoted(pairs []string) []string {
	var out []string
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, fmt.Sprintf("%s=%q", pairs[i], pairs[i+1]))
	}
	return out
}

// Write renders families in the Prometheus text format (version 0.0.4):
// each family's # HELP and # TYPE once, then its samples in order, a
// histogram as cumulative _bucket lines (le after its other labels),
// then _sum and _count.
func Write(w io.Writer, families []Family) error {
	var b bytes.Buffer
	for _, f := range families {
		if f.omitEmpty && len(f.samples) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			if s.hist == nil {
				writeSample(&b, f.name, s.labels, s.value)
				continue
			}
			bounds, cum := s.hist.Buckets()
			for i, le := range bounds {
				labels := append(s.labels[:len(s.labels):len(s.labels)], fmt.Sprintf(`le="%v"`, le))
				writeSample(&b, f.name+"_bucket", labels, cum[i])
			}
			writeSample(&b, f.name+"_sum", s.labels, s.hist.Sum())
			writeSample(&b, f.name+"_count", s.labels, s.hist.Count())
		}
	}
	_, err := b.WriteTo(w)
	return err
}

func writeSample(b *bytes.Buffer, name string, labels []string, v any) {
	if len(labels) > 0 {
		name += "{" + strings.Join(labels, ",") + "}"
	}
	fmt.Fprintf(b, "%s %v\n", name, v)
}
