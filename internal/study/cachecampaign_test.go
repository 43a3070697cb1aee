// Cold-vs-warm build identity: a campaign run on a world whose Build
// hit the template cache must serialize byte-identically to one whose
// Build did the full assembly. This is the user-visible acceptance test
// for the cache in cache.go (the golden and chaos suites exercise the
// same property incidentally; this one forces the cold/warm pairing
// explicitly).
package study_test

import (
	"bytes"
	"sync"
	"testing"

	"vpnscope/internal/study"
)

func TestWorldTemplateCacheByteIdentical(t *testing.T) {
	study.ClearWorldTemplates()
	defer study.ClearWorldTemplates()

	build := func() *study.World { return buildSubset(t, 2018, "Seed4.me", "WorldVPN") }
	run := func(w *study.World) []byte {
		res, err := w.RunWith(study.RunConfig{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		return envelope(t, res)
	}
	cold := run(build()) // populates the template
	warm := run(build()) // reuses it
	if !bytes.Equal(cold, warm) {
		t.Error("campaign on a cache-hit world differs from the cache-miss world")
	}

	// Single ownership: a cold-built and a cache-hit world, each driven
	// by its own goroutine at the same time, must share no simulator
	// state — not through the template, not through package-level pools.
	// Under -race any such sharing is a reported race; without it, a
	// cross-talk shows up as an envelope that differs from its solo run.
	study.ClearWorldTemplates()
	worlds := []*study.World{build(), build()}
	results := make([]*study.Result, len(worlds))
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = w.RunWith(study.RunConfig{Parallel: 1})
		}()
	}
	wg.Wait()
	for i, name := range []string{"cold-built", "cache-hit"} {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want := [][]byte{cold, warm}[i]; !bytes.Equal(envelope(t, results[i]), want) {
			t.Errorf("concurrent run of the %s world differs from its solo envelope", name)
		}
	}
}
