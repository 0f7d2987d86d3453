package main

import (
	"os"
	"strings"
	"testing"
)

// runCLI runs one CLI command in-process and returns what it printed
// to stdout; a non-zero exit status fails the test.
func runCLI(t *testing.T, argv ...string) string {
	t.Helper()
	out, code := runCLIStatus(t, argv...)
	if code != 0 {
		t.Fatalf("cuisinevol %s: exit status %d", strings.Join(argv, " "), code)
	}
	return out
}

// runCLIStatus runs one CLI command in-process and returns what it
// printed to stdout and its exit status.
func runCLIStatus(t *testing.T, argv ...string) (string, int) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	code := run(argv)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), code
}

// TestCLIHorizontalOneRegion checks that a sweep over a single region,
// which has no pair to measure, fails without printing a table or a
// verdict.
func TestCLIHorizontalOneRegion(t *testing.T) {
	out, code := runCLIStatus(t, "horizontal", "-scale", "0.03", "-regions", "ITA")
	if code == 0 || out != "" {
		t.Fatalf("horizontal -regions ITA: exit status %d, stdout %q; want a failure and no output", code, out)
	}
}

// TestCLIEndToEnd drives every experiment command the CLI exposes on a
// small corpus. It checks that `all` and `cluster` report their
// headlines, and pins the pairing and horizontal tables byte for byte,
// for the default flags and for non-default ones, so the commands'
// numbers and formatting cannot drift unnoticed.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	all := runCLI(t, "all", "-scale", "0.03", "-replicates", "2", "-outdir", t.TempDir())
	for _, want := range []string{
		"== table1 ==", "Table I: 25 cuisines",
		"== fig1 ==", "Fig 1: recipe sizes",
		"== fig2 ==", "Fig 2: leading categories",
		"== fig3 ==", "Fig 3: mean pairwise MAE",
		"== fig4 ==", "Fig 4 (ingredient combinations)",
		"== fig4 (category control) ==", "Fig 4 (category combinations (control))",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("all: output lacks %q", want)
		}
	}
	cluster := runCLI(t, "cluster", "-scale", "0.03")
	if !strings.Contains(cluster, "merge sequence") || !strings.Contains(cluster, "clusters") {
		t.Errorf("cluster: no dendrogram or summary in\n%s", cluster)
	}
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"pairing", "-scale", "0.03"}, pairingDefault},
		{[]string{"pairing", "-scale", "0.03", "-flavor-seed", "7", "-nrand", "20"}, pairingFlavorSeed7},
		{[]string{"horizontal", "-scale", "0.03"}, horizontalDefault},
		{[]string{"horizontal", "-scale", "0.03", "-regions", "KOR,ITA", "-model", "CM-C", "-migrations", "0,0.2"}, horizontalKORITA},
	} {
		if got := runCLI(t, tc.argv...); got != tc.want {
			t.Errorf("cuisinevol %s:\n got:\n%s\nwant:\n%s", strings.Join(tc.argv, " "), got, tc.want)
		}
	}
}

// The pinned tables below keep the report package's column padding,
// trailing spaces included.
const pairingDefault = `Food-pairing analysis: recipe flavor-sharing vs random-recipe null
Region  RealMean  RandMean  Delta   Z    
-----------------------------------------
AFR     1.106     0.777     0.329   9.17 
ANZ     0.880     0.781     0.099   2.17 
IRL     0.903     0.756     0.147   2.47 
CAN     1.021     0.750     0.270   6.48 
CBN     0.775     0.768     0.008   0.22 
CHN     0.877     0.799     0.078   1.83 
DACH    1.017     0.758     0.259   6.67 
EE      0.863     0.736     0.127   2.35 
FRA     1.130     0.733     0.397   13.52
GRC     0.775     0.746     0.029   0.92 
INSC    1.573     0.785     0.788   33.95
ITA     0.733     0.760     -0.027  -1.29
JPN     0.875     0.819     0.056   1.23 
KOR     1.012     0.845     0.167   1.89 
MEX     0.636     0.743     -0.107  -5.49
ME      0.877     0.783     0.093   2.39 
SCND    0.989     0.739     0.250   4.59 
SAM     0.670     0.748     -0.078  -2.72
SEA     0.918     0.841     0.077   0.99 
SP      0.720     0.757     -0.037  -0.97
THA     0.713     0.759     -0.046  -0.98
USA     0.895     0.758     0.137   6.79 
BN      1.068     0.709     0.359   4.44 
CAM     0.717     0.838     -0.121  -0.80
UK      0.955     0.754     0.201   5.30 
`

const pairingFlavorSeed7 = `Food-pairing analysis: recipe flavor-sharing vs random-recipe null
Region  RealMean  RandMean  Delta   Z    
-----------------------------------------
AFR     1.103     0.774     0.329   10.42
ANZ     0.788     0.788     -0.001  -0.01
IRL     0.873     0.739     0.135   3.01 
CAN     0.708     0.759     -0.051  -1.17
CBN     0.889     0.781     0.108   2.46 
CHN     0.829     0.809     0.020   0.51 
DACH    0.861     0.772     0.089   2.18 
EE      0.670     0.743     -0.073  -1.07
FRA     0.784     0.760     0.024   0.70 
GRC     0.956     0.775     0.181   5.33 
INSC    1.165     0.794     0.371   17.87
ITA     0.797     0.794     0.003   0.17 
JPN     0.856     0.807     0.050   0.97 
KOR     0.845     0.826     0.019   0.27 
MEX     0.741     0.762     -0.020  -0.98
ME      1.055     0.821     0.234   6.25 
SCND    0.808     0.767     0.041   0.82 
SAM     0.750     0.770     -0.020  -0.66
SEA     0.878     0.851     0.027   0.33 
SP      0.840     0.748     0.092   3.04 
THA     0.784     0.770     0.014   0.25 
USA     0.715     0.754     -0.038  -1.89
BN      0.685     0.752     -0.067  -0.60
CAM     0.933     0.869     0.064   0.39 
UK      0.787     0.752     0.035   0.71 
`

const horizontalDefault = `Horizontal transmission sweep (CM-R over ITA,FRA,JPN): mean pairwise usage distance
Migration  MeanUsageTV
----------------------
0.00       0.9209     
0.10       0.7030     
0.30       0.4236     
0.50       0.2584     
declining distance with migration = horizontal propagation homogenizes cuisines (paper §VII)
`

const horizontalKORITA = `Horizontal transmission sweep (CM-C over KOR,ITA): mean pairwise usage distance
Migration  MeanUsageTV
----------------------
0.00       0.9509     
0.20       0.4710     
declining distance with migration = horizontal propagation homogenizes cuisines (paper §VII)
`
