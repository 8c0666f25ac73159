package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationNames(t *testing.T) {
	names := AblationNames()
	if len(names) != 4 {
		t.Fatalf("ablations = %v", names)
	}
	for _, n := range names {
		res, err := RunAblation(n, 1, 0.005, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(res.Points) < 2 {
			t.Fatalf("%s: %d points, want a sweep", n, len(res.Points))
		}
		for _, p := range res.Points {
			if p.Label == "" || p.Boot.Mean <= 0 {
				t.Fatalf("%s: bad point %+v", n, p)
			}
		}
		var buf bytes.Buffer
		WriteAblation(&buf, &res)
		if !strings.Contains(buf.String(), res.Name) {
			t.Fatalf("%s: report missing name", n)
		}
	}
}

func TestRunAblationUnknown(t *testing.T) {
	if _, err := RunAblation("nope", 1, 0.01, 1, nil); err == nil {
		t.Fatal("unknown ablation must error")
	}
}
