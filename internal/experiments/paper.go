package experiments

// Reference values from the paper (Marques et al., DSN 2018), used for
// side-by-side comparison columns. The reproduction is judged on shape — who alerts more,
// bucket ordering, rough factors — not on absolute counts, since the
// substrate is a calibrated simulator rather than the Amadeus testbed.

// PaperTable1 holds the paper's Table 1.
var PaperTable1 = struct {
	Total, Distil, Arcane uint64
}{
	Total:  1_469_744,
	Distil: 1_275_056,
	Arcane: 1_240_713,
}

// PaperTable2 holds the paper's Table 2.
var PaperTable2 = struct {
	Both, Neither, ArcaneOnly, DistilOnly uint64
}{
	Both:       1_231_408,
	Neither:    185_383,
	ArcaneOnly: 9_305,
	DistilOnly: 43_648,
}

// PaperStatusCount is one status row of the paper's Tables 3/4.
type PaperStatusCount struct {
	Status int
	Count  uint64
}

// PaperTable3Arcane is the paper's Table 3, Arcane column.
var PaperTable3Arcane = []PaperStatusCount{
	{200, 1_204_241}, {302, 34_561}, {204, 1_560}, {400, 256},
	{304, 76}, {500, 11}, {404, 8},
}

// PaperTable3Distil is the paper's Table 3, Distil column.
var PaperTable3Distil = []PaperStatusCount{
	{200, 1_239_079}, {302, 34_832}, {204, 1_018}, {400, 73},
	{404, 32}, {304, 15}, {500, 6}, {403, 1},
}

// PaperTable4Arcane is the paper's Table 4, Arcane-only column.
var PaperTable4Arcane = []PaperStatusCount{
	{200, 7_693}, {204, 956}, {302, 321}, {400, 247},
	{304, 76}, {404, 7}, {500, 5},
}

// PaperTable4Distil is the paper's Table 4, Distil-only column.
var PaperTable4Distil = []PaperStatusCount{
	{200, 42_531}, {302, 592}, {204, 414}, {400, 64},
	{404, 31}, {304, 15}, {403, 1},
}
