// Package a exercises the errdrop discarded-error checks.
package a

import (
	"chk"
	"stats"
)

type config struct{ n int }

func (c config) Validate() error {
	if c.n < 0 {
		return errTooSmall
	}
	return nil
}

// ok is a Validate with no error result: not watched.
type lenient struct{}

func (lenient) Validate() bool { return true }

type channelish struct{}

func (channelish) CheckSane(now int64) error { return nil }
func (channelish) CheckIntegrity() error     { return nil }

// flusher mimics tabwriter: Flush's only result is an error.
type flusher struct{}

func (f *flusher) Flush() error { return nil }

// writer mimics io.Writer-style calls: Flush returning (int, error)
// does not match the only-error Flush contract.
type countingFlusher struct{}

func (countingFlusher) Flush() (int, error) { return 0, nil }

var errTooSmall = error(nil)

func dropped(c config, ch channelish, m *chk.Manifest, f *flusher) {
	c.Validate()            // want `error returned by config.Validate is discarded`
	ch.CheckSane(0)         // want `error returned by channelish.CheckSane is discarded`
	ch.CheckIntegrity()     // want `error returned by channelish.CheckIntegrity is discarded`
	stats.HarmonicMean(nil) // want `error returned by stats.HarmonicMean is discarded`
	m.Record("k")           // want `error returned by Manifest.Record is discarded`
	defer m.Save()          // want `error returned by Manifest.Save is discarded`
	go f.Flush()            // want `error returned by flusher.Flush is discarded`
}

func allowed(c config, m *chk.Manifest, f *flusher, cf countingFlusher) (float64, error) {
	_ = c.Validate() // explicit, visible discard is a deliberate choice
	if err := m.Record("k"); err != nil {
		return 0, err
	}
	hm, err := stats.HarmonicMean([]float64{1, 2})
	if err != nil {
		return 0, err
	}
	stats.Mean(nil) // no error result
	m.Lookup("k")   // no error result
	cf.Flush()      // (int, error) Flush is outside the only-error contract
	//lint:ignore errdrop fixture: error intentionally unobservable here
	f.Flush()
	return hm, c.Validate()
}
