package beacon

import (
	"errors"
	"fmt"
	"testing"
)

// TestHTTPStatus exhaustively pins the sentinel → status table, for bare
// sentinels and for errors wrapped any number of layers deep — the
// property the daemon's every error response rests on.
func TestHTTPStatus(t *testing.T) {
	t.Parallel()
	cases := []struct {
		err  error
		want int
	}{
		{nil, 200},
		{ErrBadConfig, 400},
		{ErrUnknownSpecies, 422},
		{ErrUnsupportedApp, 422},
		{ErrQueueFull, 429},
		{ErrQuotaExhausted, 429},
		{ErrCacheCorrupt, 500},
		{errors.New("anonymous failure"), 500},
	}
	for _, tc := range cases {
		if got := HTTPStatus(tc.err); got != tc.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
		if tc.err == nil {
			continue
		}
		wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", tc.err))
		if got := HTTPStatus(wrapped); got != tc.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", wrapped, got, tc.want)
		}
	}
	// The table covers every sentinel the package exports; a new sentinel
	// must take a position here.
	sentinels := []error{ErrBadConfig, ErrUnknownSpecies, ErrUnsupportedApp,
		ErrCacheCorrupt, ErrQueueFull, ErrQuotaExhausted}
	if len(httpStatusTable) != len(sentinels) {
		t.Errorf("httpStatusTable has %d rows, want %d (one per sentinel)",
			len(httpStatusTable), len(sentinels))
	}
	for _, s := range sentinels {
		found := false
		for _, row := range httpStatusTable {
			if errors.Is(s, row.sentinel) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sentinel %v has no httpStatusTable row", s)
		}
	}
	// Real construction failures map through their wrapping layers.
	bad := DefaultWorkloadConfig(PinusTaeda)
	bad.Reads = 0
	_, err := NewWorkload(FMSeeding, bad)
	if got := HTTPStatus(err); got != 400 {
		t.Errorf("construction error %v: status %d, want 400", err, got)
	}
	_, err = NewWorkload(FMSeeding, DefaultWorkloadConfig("Zz"))
	if got := HTTPStatus(err); got != 422 {
		t.Errorf("species error %v: status %d, want 422", err, got)
	}
}

// TestRunArgumentErrors pins that every malformed Run call is a client
// error: it wraps ErrBadConfig, so HTTPStatus answers 400, never 500.
func TestRunArgumentErrors(t *testing.T) {
	t.Parallel()
	wl, err := NewFMSeedingWorkload(quickCfg(PinusTaeda))
	if err != nil {
		t.Fatal(err)
	}
	beaconD := Platform{Kind: BeaconD, Opts: AllOptimizations()}
	cases := []struct {
		name string
		p    Platform
		w    *Workload
		opts []RunOption
	}{
		{"nil workload", beaconD, nil, nil},
		{"unknown platform kind", Platform{Kind: PlatformKind(42)}, wl, nil},
		{"co-run on ddr", Platform{Kind: DDRBaseline}, wl, []RunOption{WithCoRun(wl)}},
		{"co-run on cpu", Platform{Kind: CPU}, wl, []RunOption{WithCoRun(wl)}},
		{"nil co-run workload", beaconD, wl, []RunOption{WithCoRun(nil)}},
	}
	for _, tc := range cases {
		_, err := Run(tc.p, tc.w, tc.opts...)
		if !errors.Is(err, ErrBadConfig) || HTTPStatus(err) != 400 {
			t.Errorf("%s: err = %v (status %d), want ErrBadConfig / 400", tc.name, err, HTTPStatus(err))
		}
	}
}
