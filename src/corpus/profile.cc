#include "corpus/profile.h"

#include <cstdio>
#include <cstdlib>

namespace sparqlog::corpus {

namespace {

/// Convenience builder: triples-histogram weights for buckets
/// 0,1,...,10,11+.
std::array<double, 12> Triples(std::initializer_list<double> weights) {
  std::array<double, 12> out{};
  size_t i = 0;
  for (double w : weights) {
    if (i < out.size()) out[i++] = w;
  }
  return out;
}

}  // namespace

std::vector<DatasetProfile> PaperProfiles() {
  std::vector<DatasetProfile> all;

  {
    DatasetProfile p;
    p.name = "DBpedia9/12";
    p.ns = "http://dbpedia.org/";
    p.total_queries = 28534301;
    p.valid_rate = 0.9496;
    p.unique_rate = 0.4959;
    p.w_select = 0.93; p.w_ask = 0.062; p.w_describe = 0.005;
    p.w_construct = 0.003;
    p.triples_weights = Triples({0.015, 0.70, 0.10, 0.05, 0.03, 0.02, 0.02,
                                 0.015, 0.01, 0.007, 0.005, 0.028});
    p.distinct_rate = 0.18;
    p.avg_triples = 2.38;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "DBpedia13";
    p.ns = "http://dbpedia.org/";
    p.total_queries = 5243853;
    p.valid_rate = 0.9191;
    p.unique_rate = 0.5453;
    p.w_select = 0.875; p.w_ask = 0.044; p.w_describe = 0.05;
    p.w_construct = 0.031;
    // DBpedia13 has the fattest tail (up to 21% with 11+ triples).
    p.triples_weights = Triples({0.01, 0.40, 0.12, 0.07, 0.05, 0.04, 0.03,
                                 0.025, 0.02, 0.018, 0.017, 0.21});
    p.distinct_rate = 0.08;
    p.offset_rate = 0.12;
    p.avg_triples = 3.98;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "DBpedia14";
    p.ns = "http://dbpedia.org/";
    p.total_queries = 37219788;
    p.valid_rate = 0.9134;
    p.unique_rate = 0.5064;
    p.w_select = 0.90; p.w_ask = 0.054; p.w_describe = 0.036;
    p.w_construct = 0.01;
    p.triples_weights = Triples({0.02, 0.72, 0.10, 0.04, 0.03, 0.02, 0.015,
                                 0.012, 0.01, 0.006, 0.004, 0.023});
    p.distinct_rate = 0.11;
    p.avg_triples = 2.09;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "DBpedia15";
    p.ns = "http://dbpedia.org/";
    p.total_queries = 43478986;
    p.valid_rate = 0.9823;
    p.unique_rate = 0.3103;
    p.w_select = 0.815; p.w_ask = 0.115; p.w_describe = 0.05;
    p.w_construct = 0.02;
    p.triples_weights = Triples({0.015, 0.62, 0.11, 0.06, 0.04, 0.03, 0.025,
                                 0.02, 0.015, 0.012, 0.008, 0.045});
    p.distinct_rate = 0.38;
    p.avg_triples = 2.94;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "DBpedia16";
    p.ns = "http://dbpedia.org/";
    p.total_queries = 15098176;
    p.valid_rate = 0.9728;
    p.unique_rate = 0.2975;
    p.w_select = 0.62; p.w_ask = 0.0199; p.w_describe = 0.34;
    p.w_construct = 0.0201;
    p.triples_weights = Triples({0.01, 0.42, 0.14, 0.08, 0.06, 0.05, 0.04,
                                 0.03, 0.025, 0.02, 0.015, 0.11});
    p.distinct_rate = 0.08;
    p.avg_triples = 3.78;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "LGD13";
    p.ns = "http://linkedgeodata.org/";
    p.total_queries = 1841880;
    p.valid_rate = 0.8219;
    p.unique_rate = 0.2364;
    p.w_select = 0.28; p.w_ask = 0.0101; p.w_describe = 0.0099;
    p.w_construct = 0.70;
    p.triples_weights = Triples({0.01, 0.45, 0.14, 0.09, 0.07, 0.05, 0.04,
                                 0.03, 0.025, 0.02, 0.015, 0.05});
    p.offset_rate = 0.13;
    p.avg_triples = 3.19;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "LGD14";
    p.ns = "http://linkedgeodata.org/";
    p.total_queries = 1999961;
    p.valid_rate = 0.9646;
    p.unique_rate = 0.3259;
    p.w_select = 0.92; p.w_ask = 0.0547; p.w_describe = 0.015;
    p.w_construct = 0.0103;
    p.triples_weights = Triples({0.01, 0.50, 0.16, 0.09, 0.06, 0.04, 0.03,
                                 0.025, 0.02, 0.015, 0.01, 0.04});
    p.limit_rate = 0.41;
    p.offset_rate = 0.38;
    p.filter_rate = 0.61;
    p.count_rate = 0.31;
    p.avg_triples = 2.65;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "BioP13";
    p.ns = "http://bioportal.bioontology.org/";
    p.total_queries = 4627271;
    p.valid_rate = 0.9994;
    p.unique_rate = 0.1487;
    p.w_select = 0.97; p.w_ask = 0.03; p.w_describe = 0.0;
    p.w_construct = 0.0;
    // Almost exclusively 0-2 triples (Figure 1), Avg#T = 1.16.
    p.triples_weights = Triples({0.05, 0.78, 0.14, 0.02, 0.007, 0.002,
                                 0.001, 0, 0, 0, 0, 0});
    p.distinct_rate = 0.82;
    p.graph_rate = 0.80;
    p.filter_rate = 0.02;
    p.avg_triples = 1.16;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "BioP14";
    p.ns = "http://bioportal.bioontology.org/";
    p.total_queries = 26438933;
    p.valid_rate = 0.9987;
    p.unique_rate = 0.0830;
    p.w_select = 0.965; p.w_ask = 0.032; p.w_describe = 0.002;
    p.w_construct = 0.001;
    p.triples_weights = Triples({0.04, 0.68, 0.20, 0.05, 0.02, 0.006,
                                 0.003, 0.001, 0, 0, 0, 0});
    p.distinct_rate = 0.69;
    p.graph_rate = 0.40;
    p.filter_rate = 0.03;
    p.avg_triples = 1.42;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "BioMed13";
    p.ns = "http://openbiomed.org/";
    p.total_queries = 883374;
    p.valid_rate = 0.9994;
    p.unique_rate = 0.0306;
    p.w_select = 0.125; p.w_ask = 0.0037; p.w_describe = 0.848;
    p.w_construct = 0.0242;
    p.triples_weights = Triples({0.01, 0.52, 0.17, 0.08, 0.05, 0.035, 0.025,
                                 0.02, 0.015, 0.01, 0.008, 0.047});
    p.filter_rate = 0.03;
    p.avg_triples = 2.44;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "SWDF13";
    p.ns = "http://data.semanticweb.org/";
    p.total_queries = 13762797;
    p.valid_rate = 0.9895;
    p.unique_rate = 0.0903;
    p.w_select = 0.94; p.w_ask = 0.0214; p.w_describe = 0.028;
    p.w_construct = 0.0106;
    p.triples_weights = Triples({0.03, 0.78, 0.10, 0.03, 0.015, 0.01, 0.008,
                                 0.006, 0.005, 0.004, 0.003, 0.006});
    p.limit_rate = 0.47;
    p.avg_triples = 1.51;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "BritM14";
    p.ns = "http://collection.britishmuseum.org/";
    p.total_queries = 1523827;
    p.valid_rate = 0.9932;
    p.unique_rate = 0.0893;
    p.w_select = 0.96; p.w_ask = 0.0264; p.w_describe = 0.009;
    p.w_construct = 0.0046;
    // Template-generated queries: few small, many mid-size (Avg 5.47).
    p.triples_weights = Triples({0.005, 0.10, 0.09, 0.10, 0.12, 0.13, 0.12,
                                 0.10, 0.08, 0.06, 0.05, 0.045});
    p.distinct_rate = 0.97;
    p.avg_triples = 5.47;
    all.push_back(p);
  }
  {
    DatasetProfile p;
    p.name = "WikiData17";
    p.ns = "http://www.wikidata.org/";
    p.total_queries = 309;
    p.valid_rate = 0.9968;
    p.unique_rate = 1.0;
    p.w_select = 0.985; p.w_ask = 0.012; p.w_describe = 0.002;
    p.w_construct = 0.001;
    p.triples_weights = Triples({0.01, 0.18, 0.18, 0.15, 0.12, 0.09, 0.07,
                                 0.05, 0.04, 0.03, 0.02, 0.06});
    p.order_by_rate = 0.42;
    p.group_by_rate = 0.30;
    p.subquery_rate = 0.0974;
    p.property_path_rate = 0.2987;
    p.service_rate = 0.70;  // the SERVICE language subquery, Section 4.3
    p.avg_triples = 3.94;
    all.push_back(p);
  }
  return all;
}

const DatasetProfile& ProfileByName(const std::vector<DatasetProfile>& all,
                                    const std::string& name) {
  for (const DatasetProfile& p : all) {
    if (p.name == name) return p;
  }
  std::fprintf(stderr, "unknown dataset profile: %s\n", name.c_str());
  std::abort();
}

}  // namespace sparqlog::corpus
