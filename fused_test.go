package relperf

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// unfusedPackages are the packages whose floating-point code is written
// with explicit rounding: every product that feeds a sum is converted,
// float64(x*y) + z, which the Go spec says forbids fusing the two into one
// multiply-add. amd64's compiler never fuses, but arm64's (and ppc64le's,
// s390x's, riscv64's) does wherever it may, and a fused x*y+z rounds once
// where the separate operations round twice, so the same seed would give
// different bits on an arm64 node.
var unfusedPackages = []string{"./internal/xrand", "./internal/stats"}

// fusedOp matches arm64's fused multiply-add instructions in a -S listing.
var fusedOp = regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// TestNoFusedMultiplyAdd cross-compiles unfusedPackages for arm64 with the
// assembly listing on and fails on any fused multiply-add in it, naming
// the source line. Cross-compiling needs only the Go toolchain, so this
// runs on any host.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command on PATH: %v", err)
	}
	args := append([]string{"build", "-gcflags=-S"}, unfusedPackages...)
	cmd := exec.Command(goTool, args...)
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	if !strings.Contains(string(out), "TEXT") {
		t.Fatalf("go %s printed no assembly listing:\n%s", strings.Join(args, " "), out)
	}
	var fused []string
	for _, line := range strings.Split(string(out), "\n") {
		if fusedOp.MatchString(line) {
			fused = append(fused, strings.TrimSpace(line))
		}
	}
	if len(fused) > 0 {
		t.Fatalf("arm64 fuses %d multiply-adds; round the product explicitly, float64(x*y) + z:\n%s",
			len(fused), strings.Join(fused, "\n"))
	}
}
