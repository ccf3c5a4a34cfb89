package main

import (
	"os"
	"slices"
	"strings"
	"testing"

	"regionmon/internal/adore"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want adore.Policy
	}{
		{"gpd", adore.PolicyGPD},
		{"lpd", adore.PolicyLPD},
		{"none", adore.PolicyNone},
	}
	for _, c := range cases {
		got, err := parsePolicy(c.in)
		if err != nil {
			t.Errorf("parsePolicy(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("parsePolicy(%q) = %v; want %v", c.in, got, c.want)
		}
	}
	if _, err := parsePolicy("adaptive"); err == nil {
		t.Error("parsePolicy accepted an unknown policy")
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out strings.Builder
		for {
			n, err := r.Read(buf)
			out.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- out.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("run: %v", errRun)
	}
	return out
}

func TestRunOneSmoke(t *testing.T) {
	res, err := runOne("181.mcf", 100_000, 16, 0.0005, adore.PolicyLPD, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != adore.PolicyLPD {
		t.Errorf("result policy = %v; want %v", res.Policy, adore.PolicyLPD)
	}
	if res.Sim.Overflows == 0 {
		t.Error("smoke run saw no sample-buffer overflows")
	}
	if len(res.Events) > 4 {
		t.Errorf("-events 4 but got %d events", len(res.Events))
	}
	out := captureStdout(t, func() error { printResult(res); return nil })
	for _, want := range []string{"policy", "actual cycles", "intervals"} {
		if !strings.Contains(out, want) {
			t.Errorf("printResult output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCompareSmoke(t *testing.T) {
	out := captureStdout(t, func() error {
		return runCompare("181.mcf", 100_000, 16, 0.0005)
	})
	for _, want := range []string{"no-RTO", "RTO-ORIG(gpd)", "RTO-LPD", "Figure 17"} {
		if !strings.Contains(out, want) {
			t.Errorf("runCompare output missing %q:\n%s", want, out)
		}
	}
}

// TestEventsFlag: -events N prints the run's last N controller events, 0
// prints none and a negative N all of them. The 254.gap RTO-ORIG run at
// a 100K period prints the same five lines at -events 5 as when the
// controller kept a ring of its own, and at -events -1 every patch and
// unpatch it counted.
func TestEventsFlag(t *testing.T) {
	printed := func(events int) (adore.RunResult, []string) {
		t.Helper()
		res, err := runOne("254.gap", 100_000, 512, 1, adore.PolicyGPD, false, events)
		if err != nil {
			t.Fatal(err)
		}
		out := captureStdout(t, func() error { printResult(res); return nil })
		_, evs, found := strings.Cut(out, "events:\n")
		if !found {
			return res, nil
		}
		return res, strings.Split(strings.TrimSuffix(evs, "\n"), "\n")
	}

	res, all := printed(-1)
	if len(all) <= 5 {
		t.Fatalf("-events -1 printed %d events; the run logs more than 5", len(all))
	}
	deploys := 0
	for _, line := range all {
		if strings.Contains(line, " patch ") || strings.Contains(line, " unpatch ") {
			deploys++
		}
	}
	if len(all) != len(res.Events) || deploys != res.Patches+res.Unpatches {
		t.Errorf("-events -1 printed %d events, %d of them patches and unpatches; want %d and %d",
			len(all), deploys, len(res.Events), res.Patches+res.Unpatches)
	}
	if _, none := printed(0); none != nil {
		t.Errorf("-events 0 printed %d events; want none", len(none))
	}
	want := []string{
		"  cycle   9062088320  seq  176  unpatch      2e110-2e17c    global phase change",
		"  cycle   9062088320  seq  176  unpatch      39490-3950c    global phase change",
		"  cycle   9062088320  seq  176  unpatch      53dc4-53e48    global phase change",
		"  cycle   9062088320  seq  176  unpatch      72748-727c8    global phase change",
		"  cycle   9062088320  seq  176  unpatch      8b180-8b1f8    global phase change",
	}
	if _, last := printed(5); !slices.Equal(last, want) || !slices.Equal(last, all[len(all)-5:]) {
		t.Errorf("-events 5 printed\n%s\nwant\n%s", strings.Join(last, "\n"), strings.Join(want, "\n"))
	}
}
