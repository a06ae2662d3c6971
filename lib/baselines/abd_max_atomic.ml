let factory = Abd_max.factory_with ~name:"abd-max-atomic" ~write_back_reads:true
