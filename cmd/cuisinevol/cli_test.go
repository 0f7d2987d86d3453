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
	out, _, code := runCLIOutputs(t, argv...)
	return out, code
}

// runCLIOutputs runs one CLI command in-process and returns what it
// printed to stdout and to stderr, and its exit status.
func runCLIOutputs(t *testing.T, argv ...string) (stdout, stderr string, code int) {
	t.Helper()
	dir := t.TempDir()
	capture := func(name string) (*os.File, func() string) {
		f, err := os.CreateTemp(dir, name)
		if err != nil {
			t.Fatal(err)
		}
		return f, func() string {
			f.Close()
			b, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
	}
	outFile, readOut := capture("stdout")
	errFile, readErr := capture("stderr")
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outFile, errFile
	code = run(argv)
	os.Stdout, os.Stderr = savedOut, savedErr
	return readOut(), readErr(), code
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

// TestCLIExperimentWritesNoArtifactsByDefault checks that an experiment
// run without -outdir writes no files: run from the repository root it
// would otherwise overwrite the committed paper-scale results/.
func TestCLIExperimentWritesNoArtifactsByDefault(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	runCLI(t, "fig1", "-scale", "0.03")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("fig1 without -outdir wrote %s", e.Name())
	}
}

// TestCLIEndToEnd drives every experiment command the CLI exposes on a
// small corpus. It checks that `all` and `cluster` report their
// headlines, and pins the pairing, horizontal, mine, overrep, evolve and
// search output byte for byte, for the default flags and for non-default
// ones, so the commands' numbers and formatting cannot drift unnoticed.
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
		{[]string{"mine", "-scale", "0.03", "-top", "10"}, mineITA},
		{[]string{"mine", "-scale", "0.03", "-region", "kor", "-categories", "-top", "8"}, mineKORCategories},
		{[]string{"overrep", "-scale", "0.03"}, overrepITA},
		{[]string{"overrep", "-scale", "0.03", "-region", "kor", "-k", "5"}, overrepKOR},
		{[]string{"evolve", "-scale", "0.03", "-replicates", "4"}, evolveITA},
		{[]string{"evolve", "-scale", "0.03", "-region", "kor", "-model", "CM-C", "-replicates", "3", "-support", "0.1"}, evolveKORCMC},
		// At 1% both replicates have more than 64 frequent items (93
		// and 96), more than one 64-bit word holds.
		{[]string{"evolve", "-scale", "0.03", "-replicates", "2", "-support", "0.01"}, evolveITALowSupport},
		{[]string{"search", "-scale", "0.03", "-top", "3"}, searchTomatoBasil},
		{[]string{"search", "-scale", "0.03", "-with", "Ginger, soybean sauce", "-top", "2"}, searchGingerSoy},
		// -region scopes the count and the companions, not only the
		// recipes listed.
		{[]string{"search", "-scale", "0.03", "-region", "ita", "-top", "2"}, searchTomatoBasilITA},
	} {
		if got := runCLI(t, tc.argv...); got != tc.want {
			t.Errorf("cuisinevol %s:\n got:\n%s\nwant:\n%s", strings.Join(tc.argv, " "), got, tc.want)
		}
	}
	// A region with no recipes fails with one line on stderr and nothing
	// on stdout.
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"overrep", "-scale", "0.03", "-region", "XYZ"}, "cuisinevol: overrep: region \"XYZ\" has no recipes\n"},
		{[]string{"evolve", "-scale", "0.03", "-region", "XYZ"}, "cuisinevol: region \"XYZ\" has no recipes\n"},
		{[]string{"search", "-scale", "0.03", "-region", "xyz"}, "cuisinevol: region \"xyz\" has no recipes\n"},
	} {
		stdout, stderr, code := runCLIOutputs(t, tc.argv...)
		if code != 1 || stdout != "" || stderr != tc.want {
			t.Errorf("cuisinevol %s: exit status %d, stdout %q, stderr %q; want 1, \"\", %q",
				strings.Join(tc.argv, " "), code, stdout, stderr, tc.want)
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

const mineITA = `Frequent combinations in ITA (support >= 5%, 258 total)
Rank  Combination               Support
---------------------------------------
1     olive                     0.5928 
2     parmesan cheese           0.5784 
3     garlic                    0.5367 
4     basil                     0.5065 
5     salt                      0.4892 
6     tomato                    0.4547 
7     onion                     0.4446 
8     parmesan cheese + olive   0.3554 
9     garlic + parmesan cheese  0.3381 
10    garlic + olive            0.3353 
`

const mineKORCategories = `Frequent combinations in KOR (support >= 5%, 1131 total)
Rank  Combination                   Support
-------------------------------------------
1     Vegetable                     0.9459 
2     Additive                      0.9459 
3     Vegetable + Additive          0.9189 
4     Spice                         0.8649 
5     Vegetable + Spice             0.8378 
6     Spice + Additive              0.8378 
7     Nuts and Seeds                0.8108 
8     Vegetable + Spice + Additive  0.8108 
`

const overrepITA = `Most overrepresented ingredients in ITA (Eq 1)
Rank  Ingredient       Category   Score 
----------------------------------------
1     parmesan cheese  Dairy      0.4895
2     olive            Fruit      0.4299
3     basil            Herb       0.4283
4     tomato           Vegetable  0.2568
5     garlic           Vegetable  0.2310
6     water            Beverage   0.0740
7     onion            Vegetable  0.0724
8     orange juice     Beverage   0.0380
9     vegetable oil    Plant      0.0364
10    carrot           Vegetable  0.0362
paper's Table I list: olive, parmesan cheese, basil, garlic, tomato
`

const overrepKOR = `Most overrepresented ingredients in KOR (Eq 1)
Rank  Ingredient     Category        Score 
-------------------------------------------
1     sesame         Nuts and Seeds  0.6751
2     ginger         Spice           0.5890
3     soybean sauce  Additive        0.5828
4     sugar          Additive        0.3479
5     garlic         Vegetable       0.3159
paper's Table I list: sesame, soybean sauce, garlic, sugar, ginger
`

const evolveITA = `CM-R on ITA: 4 replicates, 452 frequent-combination ranks (empirical 258), MAE 0.00031
ITA: empirical vs CM-R (log-log rank-frequency)
  0.61 |o                                                                       
       |*       o   *                                                           
       |            o   * *                                                     
       |                o o * *                                                 
       |                    o o o                                               
       |                         ooooo**                                        
       |                              ooo***                                    
       |                                oooooo*                                 
       |                                     ooooo                              
       |                                         oooo                           
       |                                           **oooo                       
       |                                               *oooo                    
       |                                                 **ooo                  
       |                                                   **ooooo              
       |                                                      ***oooo           
       |                                                         ***oooo        
       |                                                           *** oooo     
0.0504 |                                                             **** oooooo
       +------------------------------------------------------------------------
        1                                                                    452
  * empirical
  o CM-R
`

const evolveKORCMC = `CM-C on KOR: 3 replicates, 5387 frequent-combination ranks (empirical 176), MAE 0.02977
KOR: empirical vs CM-C (log-log rank-frequency)
0.883 |o                                                                       
      |     o   o o                                                            
      |*    *       oo ooo                                                     
      |         * * **    ooooo                                                
      |                **     oooo                                             
      |                  *****    ooooo                                        
      |                       ***     oooooo                                   
      |                          *****     oooo                                
      |                              **       ooooo                            
      |                               *****       oooo                         
      |                                   ***        ooooo                     
      |                                     ***          oo                    
      |                                       **          ooo                  
      |                                                     oooo               
      |                                        *               oooo            
      |                                                           oooooo       
      |                                        *                       oo      
0.108 |                                        ***                      ooooooo
      +------------------------------------------------------------------------
       1                                                               5.39e+03
  * empirical
  o CM-C
`

const evolveITALowSupport = `CM-R on ITA: 2 replicates, 6363 frequent-combination ranks (empirical 3233), MAE 0.00010
ITA: empirical vs CM-R (log-log rank-frequency)
 0.621 |o                                                                       
       |*    o  o  * *                                                          
       |           o oo*                                                        
       |               oooooo*                                                  
       |                     ooooo*                                             
       |                         ooooo                                          
       |                             *oooo                                      
       |                                *oooo                                   
       |                                   **oooo                               
       |                                      **ooooo                           
       |                                        ****oooo                        
       |                                           ****ooooo                    
       |                                              **** oooo                 
       |                                                 **** oooo              
       |                                                    **** oooo           
       |                                                       **** oooo        
       |                                                          *****ooooo    
0.0101 |                                                              **** ooooo
       +------------------------------------------------------------------------
        1                                                               6.36e+03
  * empirical
  o CM-R
`

const searchTomatoBasil = `173 recipes contain all of: tomato, basil

  [GRC] basil, feta cheese, oregano, ground turkey, ginger, fines herbes, paneer, cumin, salt, honey, tomato, milk, water, onion, olive oil
  [ITA] sunflower oil, parmesan cheese, condensed milk, olive, basil, onion, tomato, garlic, chicken
  [ITA] basil, tomato, olive oil, parmesan cheese, olive, marjoram, habanero pepper, onion, amchur, black pepper, vinegar, lavender oil

most frequent companions of the first query ingredient:
  salt                     510 recipes (jaccard 0.169)
  onion                    407 recipes (jaccard 0.177)
  garlic                   349 recipes (jaccard 0.171)
  olive                    284 recipes (jaccard 0.198)
  cilantro                 276 recipes (jaccard 0.177)
  butter                   234 recipes (jaccard 0.106)
  flour                    214 recipes (jaccard 0.105)
  sugar                    204 recipes (jaccard 0.100)
`

const searchGingerSoy = `143 recipes contain all of: ginger, soybean sauce

  [CHN] sesame, ginger, onion, carrot, balsamic vinegar, soybean sauce, banana, honey, stevia leaf
  [CHN] soybean sauce, sesame, corn, garlic, onion, salami, chicken, salsa, lemon juice, ginger, prosciutto, sugar, paratha, dill, fish

most frequent companions of the first query ingredient:
  salt                     320 recipes (jaccard 0.114)
  onion                    218 recipes (jaccard 0.104)
  garlic                   152 recipes (jaccard 0.082)
  soybean sauce            143 recipes (jaccard 0.201)
  cilantro                 136 recipes (jaccard 0.104)
  sesame                   131 recipes (jaccard 0.196)
  cumin                    125 recipes (jaccard 0.111)
  sugar                    121 recipes (jaccard 0.070)
`

const searchTomatoBasilITA = `169 recipes contain all of: tomato, basil

  [ITA] sunflower oil, parmesan cheese, condensed milk, olive, basil, onion, tomato, garlic, chicken
  [ITA] basil, tomato, olive oil, parmesan cheese, olive, marjoram, habanero pepper, onion, amchur, black pepper, vinegar, lavender oil

most frequent companions of the first query ingredient:
  olive                    196 recipes (jaccard 0.368)
  parmesan cheese          193 recipes (jaccard 0.368)
  garlic                   170 recipes (jaccard 0.328)
  basil                    169 recipes (jaccard 0.339)
  salt                     164 recipes (jaccard 0.333)
  onion                    148 recipes (jaccard 0.310)
  flour                    80 recipes (jaccard 0.203)
  water                    55 recipes (jaccard 0.147)
`
